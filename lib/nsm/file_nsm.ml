let create_bind stack ~bind_server ?cache ?per_query_ms () =
  Text_nsm.create stack
    (Text_nsm.Bind { server = bind_server })
    ~tag:"bind-file" ?cache ?per_query_ms ()

let create_ch stack ~ch_server ~credentials ~domain ~org ?per_query_ms () =
  Text_nsm.create stack
    (Text_nsm.Ch
       {
         server = ch_server;
         credentials;
         domain;
         org;
         prop = Clearinghouse.Property.Id.description;
       })
    ~tag:"ch-file" ?per_query_ms ()

let create_bind stack ~bind_server ?cache ?per_query_ms () =
  Text_nsm.create stack
    (Text_nsm.Bind { server = bind_server })
    ~tag:"bind-mail" ?cache ?per_query_ms ()

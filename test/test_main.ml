let () =
  Alcotest.run "hns"
    [
      ("sim", Test_sim.suite);
      ("wire", Test_wire.suite);
      ("marshal", Test_marshal.suite);
      ("transport", Test_transport.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("rpc", Test_rpc.suite);
      ("dns", Test_dns.suite);
      ("clearinghouse", Test_clearinghouse.suite);
      ("replication", Test_replication.suite);
      ("propagation", Test_propagation.suite);
      ("store", Test_store.suite);
      ("failure", Test_failure.suite);
      ("properties", Test_properties.suite);
      ("extensions", Test_extensions.suite);
      ("yp", Test_yp.suite);
      ("chaos", Test_chaos.suite);
      ("soak", Test_soak.suite);
      ("hrpc", Test_hrpc.suite);
      ("hns", Test_hns.suite);
      ("cache", Test_cache.suite);
      ("coldpath", Test_coldpath.suite);
      ("agent", Test_agent.suite);
      ("nsm", Test_nsm.suite);
      ("baseline", Test_baseline.suite);
      ("workload", Test_workload.suite);
      ("loadharness", Test_loadharness.suite);
      ("fanout", Test_fanout.suite);
      ("services", Test_services.suite);
      ("paper", Test_paper.suite);
    ]

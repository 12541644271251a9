(* The determinism contract of the domain-parallel routing pipeline
   (DESIGN.md section 12), as executable properties:

   - for any fixed [batch], tables and final weights are independent of
     [domains] (and of whether a persistent pool is reused);
   - [batch:1] reproduces the sequential recurrence bit-for-bit, for
     SSSP and for every batched engine;
   - engines without shared balancing state (FTree, DOR) are
     domains-invariant outright;
   - batching never costs minimality (the |V|^2 argument is independent
     of snapshot granularity);
   - the destination loop stops at the first error, and parallel runs
     report the same (lowest-destination) error as sequential ones.

   `make check` runs this binary as the 2-domain smoke test of the
   pipeline. *)

(* This suite exists to exercise the real multi-domain fan-out path.
   Pool-aware sizing (DESIGN.md §15) would collapse every run to the
   inline path on a single-domain CI box — disable it so the pool
   dispatch, per-slot scratch, and merge machinery stay under test.
   Results are contractually identical either way. *)
let () = Routing.Batched.set_auto_sizing false

let qtest ?(count = 8) name gen prop = Testutil.qtest ~count name gen prop

let seed_gen = Testutil.seed_gen

(* The fabric mix of the ISSUE (ring, torus, XGFT, dragonfly), shared
   with the other suites via Testutil. *)
let fabric = Testutil.fabric

let same_tables = Testutil.same_tables

let route_plane_exn ?batch ?domains ?pool g ~weights =
  match Routing.Sssp.route_plane ?batch ?domains ?pool g ~weights with
  | Ok ft -> ft
  | Error msg -> Alcotest.failf "route_plane failed: %s" msg

(* ------------------------------------------------------------------ *)
(* SSSP: the tentpole contract                                          *)
(* ------------------------------------------------------------------ *)

let sssp_domains_invariant =
  qtest "sssp: fixed batch, tables and weights independent of domains" seed_gen (fun seed ->
      let _, g = fabric seed in
      let batch = 1 + (seed mod 40) in
      let w1 = Routing.Sssp.initial_weights g in
      let ft1 = route_plane_exn ~batch ~domains:1 g ~weights:w1 in
      List.for_all
        (fun domains ->
          let wd = Routing.Sssp.initial_weights g in
          let ftd = route_plane_exn ~batch ~domains g ~weights:wd in
          same_tables ft1 ftd && wd = w1)
        [ 2; 4 ])

let sssp_batch1_is_sequential =
  qtest "sssp: batch 1 on 2 domains = the sequential recurrence" seed_gen (fun seed ->
      let _, g = fabric seed in
      let w_seq = Routing.Sssp.initial_weights g in
      let ft_seq = route_plane_exn g ~weights:w_seq (* defaults: the legacy path *) in
      let w_par = Routing.Sssp.initial_weights g in
      let ft_par = route_plane_exn ~batch:1 ~domains:2 g ~weights:w_par in
      same_tables ft_seq ft_par && w_seq = w_par)

let sssp_pool_reuse =
  qtest ~count:4 "sssp: one pool, many graphs — same results as fresh pools" seed_gen (fun seed ->
      let pool = Routing.Sssp.create_pool ~domains:2 () in
      Fun.protect
        ~finally:(fun () -> Routing.Sssp.destroy_pool pool)
        (fun () ->
          List.for_all
            (fun offset ->
              let _, g = fabric (seed + offset) in
              let batch = Routing.Sssp.recommended_batch in
              let w_pool = Routing.Sssp.initial_weights g in
              let ft_pool = route_plane_exn ~batch ~pool g ~weights:w_pool in
              let w_ref = Routing.Sssp.initial_weights g in
              let ft_ref = route_plane_exn ~batch ~domains:1 g ~weights:w_ref in
              same_tables ft_pool ft_ref && w_pool = w_ref)
            [ 0; 1; 2; 3 ]))

let sssp_batched_still_minimal =
  qtest "sssp: recommended batch keeps routes minimal and balanced-valid" seed_gen (fun seed ->
      let _, g = fabric seed in
      match Routing.Sssp.route ~batch:Routing.Sssp.recommended_batch ~domains:2 g with
      | Error _ -> false
      | Ok ft -> (
        match Routing.Ftable.validate ft with
        | Error _ -> false
        | Ok stats -> stats.Routing.Ftable.minimal))

let sssp_error_parity () =
  (* Cut one switch out of a ring: every destination is unreachable from
     it, so routing must fail — with the same (first-destination) error
     sequentially, batched, and on 2 domains. *)
  let g = Topo_ring.make ~switches:6 ~terminals_per_switch:2 in
  let sw = (Graph.switches g).(0) in
  let enabled =
    Array.map
      (fun (c : Channel.t) -> c.src <> sw && c.dst <> sw)
      (Graph.channels g)
  in
  let cut = Graph.with_enabled g ~enabled in
  let attempt ?batch ?domains () =
    match Routing.Sssp.route_plane ?batch ?domains cut ~weights:(Routing.Sssp.initial_weights cut) with
    | Ok _ -> Alcotest.fail "routing a cut fabric succeeded"
    | Error msg -> msg
  in
  let seq = attempt () in
  Alcotest.(check string) "batched error" seq (attempt ~batch:4 ());
  Alcotest.(check string) "parallel error" seq (attempt ~batch:4 ~domains:2 ())

let sssp_route_destinations_subset () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2) in
  let dsts = Array.sub (Graph.terminals g) 0 8 in
  let run ?batch ?domains () =
    let weights = Routing.Sssp.initial_weights g in
    let ft = Routing.Ftable.create g ~algorithm:"sssp" in
    match Routing.Sssp.route_destinations ?batch ?domains g ~weights ~ft ~dsts with
    | Ok () -> (ft, weights)
    | Error msg -> Alcotest.failf "route_destinations failed: %s" msg
  in
  let ft_seq, w_seq = run () in
  let ft_par, w_par = run ~batch:1 ~domains:2 () in
  Alcotest.(check bool) "subset tables" true (same_tables ft_seq ft_par);
  Alcotest.(check (array int)) "subset weights" w_seq w_par

(* Switching observability on — spans flowing to a live sink, per-slot
   pool timing active — must not perturb the routed tables: batch 1 on
   2 instrumented domains still reproduces the bare sequential
   recurrence bit-for-bit, and every emitted span line parses as JSON. *)
let sssp_deterministic_under_instrumentation =
  qtest ~count:4 "sssp: tracing enabled does not perturb tables" seed_gen (fun seed ->
      let _, g = fabric seed in
      let w_seq = Routing.Sssp.initial_weights g in
      let ft_seq = route_plane_exn g ~weights:w_seq in
      let buf = Buffer.create 4096 in
      let w_par = Routing.Sssp.initial_weights g in
      let ft_par =
        Obs.Control.with_enabled true (fun () ->
            Obs.Trace.with_sink (Obs.Trace.buffer_sink buf) (fun () ->
                route_plane_exn ~batch:1 ~domains:2 g ~weights:w_par))
      in
      let lines =
        String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")
      in
      lines <> []
      && List.for_all (fun l -> Result.is_ok (Obs.Json.of_string l)) lines
      && same_tables ft_seq ft_par && w_seq = w_par)

(* ------------------------------------------------------------------ *)
(* Engines                                                              *)
(* ------------------------------------------------------------------ *)

let engine_exn name r =
  match r with
  | Ok ft -> ft
  | Error msg -> Alcotest.failf "%s failed: %s" name msg

let minhop_contract =
  qtest "minhop: batch 1 = sequential; fixed batch domains-invariant" seed_gen (fun seed ->
      let _, g = fabric seed in
      let seq = engine_exn "minhop" (Routing.Minhop.route g) in
      let b1 = engine_exn "minhop" (Routing.Minhop.route ~batch:1 ~domains:2 g) in
      let batch = 1 + (seed mod 17) in
      let d1 = engine_exn "minhop" (Routing.Minhop.route ~batch ~domains:1 g) in
      let d4 = engine_exn "minhop" (Routing.Minhop.route ~batch ~domains:4 g) in
      same_tables seq b1 && same_tables d1 d4)

let updown_contract =
  qtest "updown: batch 1 = sequential; fixed batch domains-invariant" seed_gen (fun seed ->
      let _, g = fabric seed in
      let seq = engine_exn "updown" (Routing.Updown.route g) in
      let b1 = engine_exn "updown" (Routing.Updown.route ~batch:1 ~domains:2 g) in
      let batch = 1 + (seed mod 17) in
      let d1 = engine_exn "updown" (Routing.Updown.route ~batch ~domains:1 g) in
      let d4 = engine_exn "updown" (Routing.Updown.route ~batch ~domains:4 g) in
      same_tables seq b1 && same_tables d1 d4)

let ftree_domains_invariant =
  qtest "ftree: tables independent of domains" seed_gen (fun seed ->
      let ms = [| 2 + (seed mod 3); 3 |] and ws = [| 1; 2 |] in
      let g = Topo_xgft.make ~ms ~ws ~endpoints:(2 * Topo_xgft.num_leaves ~ms) in
      let seq = engine_exn "ftree" (Routing.Ftree.route g) in
      let par = engine_exn "ftree" (Routing.Ftree.route ~domains:3 g) in
      same_tables seq par)

let dor_domains_invariant =
  qtest "dor: tables independent of domains" seed_gen (fun seed ->
      let g, coords =
        Topo_torus.torus ~dims:[| 3 + (seed mod 3); 3 + (seed / 3 mod 3) |] ~terminals_per_switch:2
      in
      let seq = engine_exn "dor" (Routing.Dor.route g coords) in
      let par = engine_exn "dor" (Routing.Dor.route ~domains:3 g coords) in
      same_tables seq par)

(* ------------------------------------------------------------------ *)
(* Whole pipeline through the registry                                  *)
(* ------------------------------------------------------------------ *)

let registry_domains_invariant =
  qtest ~count:4 "registry: dfsssp tables independent of domains at fixed batch" seed_gen
    (fun seed ->
      let _, g = fabric seed in
      let run domains =
        match
          Dfsssp.Registry.find ~max_layers:8 ~batch:Routing.Sssp.recommended_batch ~domains "dfsssp"
        with
        | None -> Alcotest.fail "dfsssp not in registry"
        | Some a -> engine_exn "dfsssp" (a.Dfsssp.Registry.run g)
      in
      let ft1 = run 1 and ft2 = run 2 in
      same_tables ft1 ft2
      && Routing.Ftable.num_layers ft1 = Routing.Ftable.num_layers ft2
      && Result.is_ok (Analysis.Analyzer.certify ft2))

let () =
  Alcotest.run "parallel routing"
    [
      ( "sssp",
        [
          sssp_domains_invariant;
          sssp_batch1_is_sequential;
          sssp_pool_reuse;
          sssp_batched_still_minimal;
          Alcotest.test_case "error parity" `Quick sssp_error_parity;
          Alcotest.test_case "destination subset" `Quick sssp_route_destinations_subset;
          sssp_deterministic_under_instrumentation;
        ] );
      ("engines", [ minhop_contract; updown_contract; ftree_domains_invariant; dor_domains_invariant ]);
      ("registry", [ registry_domains_invariant ]);
    ]

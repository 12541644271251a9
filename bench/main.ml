(* Regenerates every table and figure of the paper's evaluation (see
   DESIGN.md for the per-experiment index) at scaled default sizes, then
   runs a bechamel micro-benchmark suite over the routing engines.

   Environment knobs:
     BENCH_SCALE    divisor for real-system sizes      (default 4)
     BENCH_MAX_EP   largest sweep size (Figs. 5-7)     (default 512)
     BENCH_PATTERNS bisection patterns per eBB cell    (default 30)
     BENCH_TRIALS   random-topology seeds (Fig. 9)     (default 5)
     BENCH_SKIP_MICRO  set to skip the bechamel suite
   Full paper scale: BENCH_SCALE=1 BENCH_MAX_EP=4096 BENCH_PATTERNS=1000
   BENCH_TRIALS=100 (CPU-hours). *)

open Netgraph

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i when i > 0 -> i | _ -> default)

let scale = env_int "BENCH_SCALE" 4
let max_endpoints = env_int "BENCH_MAX_EP" 512
let patterns = env_int "BENCH_PATTERNS" 30
let trials = env_int "BENCH_TRIALS" 5

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#')

let show table =
  Harness.Report.print table;
  (try
     if not (Sys.file_exists "bench_results") then Unix.mkdir "bench_results" 0o755;
     ignore (Harness.Report.save_csv ~dir:"bench_results" table)
   with Unix.Unix_error _ | Sys_error _ -> ());
  print_newline ()

let timed_section title f =
  section title;
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[section took %.1fs]\n" (Unix.gettimeofday () -. t0)

(* Fig. 2: the ring deadlock, demonstrated on the packet simulator. *)
let fig2 () =
  let ring = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let terminals = Graph.terminals ring in
  let flows = Array.init 5 (fun i -> (terminals.(i), terminals.((i + 2) mod 5), 64)) in
  let run name ft vls =
    let config = { Simulator.Flitsim.default_config with num_vls = vls } in
    Format.printf "  %-22s %a@." name Simulator.Flitsim.pp_outcome
      (Simulator.Flitsim.run ~config ft ~flows)
  in
  (match Routing.Sssp.route ring with
  | Ok ft -> run "SSSP (1 VL)" ft 1
  | Error e -> Printf.printf "  sssp failed: %s\n" e);
  match Dfsssp.route ring with
  | Ok ft -> run (Printf.sprintf "DFSSSP (%d VLs)" (Routing.Ftable.num_layers ft)) ft 8
  | Error e -> Printf.printf "  dfsssp failed: %s\n" (Dfsssp.error_to_string e)

(* Online-assignment engines (naive DFS probe vs Pearce-Kelly dynamic
   topological ordering) vs the paper's offline algorithm — its
   one-cycle-at-a-time DFS (the test oracle) and the shipped SCC
   condensation: wall-clock over a k-ary n-tree sweep. All four produce
   deadlock-free assignments; the offline sweep is the paper's answer to
   the online cost, PK and SCC are ours. *)
let online_engines () =
  let rows =
    List.map
      (fun (r : Harness.Tableone.row) ->
        let endpoints = Harness.Report.Int r.Harness.Tableone.endpoints in
        match Result.bind (Routing.Sssp.route (Harness.Tableone.tree_graph r)) Routing.Ftable.to_store with
        | Error _ -> [ endpoints ]
        | Ok store ->
          let time f =
            match Harness.Runs.timed f with
            | dt, Ok _ -> Harness.Report.Time dt
            | _, Error _ -> Harness.Report.Missing
          in
          let online engine () = Deadlock.Online.assign_store ~engine store ~max_layers:16 in
          let heuristic = Deadlock.Heuristic.Weakest in
          [
            endpoints;
            time (online `Dfs);
            time (online `Pk);
            time (fun () -> Oracle.Layers_dfs.assign_store store ~max_layers:16 ~heuristic);
            time (fun () -> Deadlock.Layers.assign_store store ~max_layers:16 ~heuristic);
          ])
      (Harness.Tableone.rows_up_to max_endpoints)
  in
  {
    Harness.Report.title =
      "Ablation: online cycle-check engines vs offline sweep (k-ary n-tree, SSSP paths)";
    columns = [ "#endpoints"; "online DFS"; "online Pearce-Kelly"; "offline DFS"; "offline SCC" ];
    rows;
    notes = [ "assignment time only (routes precomputed); all four are deadlock-free" ];
  }

let micro () =
  let open Bechamel in
  let g = Topo_tree.make ~k:6 ~n:2 ~endpoints:64 () in
  let bench name f = Test.make ~name (Staged.stage f) in
  let expect label = function
    | Ok x -> x
    | Error _ -> failwith (label ^ ": routing failed")
  in
  let tests =
    Test.make_grouped ~name:"routing(64-endpoint 6-ary 2-tree)"
      [
        bench "minhop" (fun () -> expect "minhop" (Routing.Minhop.route g));
        bench "sssp" (fun () -> expect "sssp" (Routing.Sssp.route g));
        bench "updown" (fun () -> expect "updown" (Routing.Updown.route g));
        bench "ftree" (fun () -> expect "ftree" (Routing.Ftree.route g));
        bench "lash" (fun () -> expect "lash" (Routing.Lash.route g));
        bench "dfsssp-offline" (fun () ->
            match Dfsssp.route g with Ok ft -> ft | Error _ -> failwith "dfsssp");
        bench "dfsssp-online" (fun () ->
            match Dfsssp.route ~variant:Dfsssp.Online g with Ok ft -> ft | Error _ -> failwith "dfsssp");
      ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    Benchmark.all cfg [ instance ] test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark tests) in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-45s %12.3f us/run\n" name (est /. 1000.0)
      | _ -> Printf.printf "  %-45s (no estimate)\n" name)
    results

let () =
  Printf.printf "DFSSSP reproduction bench — scale=1/%d, sweeps to %d endpoints, %d patterns, %d trials\n"
    scale max_endpoints patterns trials;
  timed_section "Fig. 2: ring deadlock (packet-level simulation)" fig2;
  timed_section "Table I" (fun () -> show (Harness.Tableone.table ()));
  timed_section "Fig. 4" (fun () -> show (Harness.Fig_bandwidth.fig4 ~scale ~patterns ()));
  timed_section "Fig. 5" (fun () -> show (Harness.Fig_bandwidth.fig5 ~max_endpoints ~patterns ()));
  timed_section "Fig. 6" (fun () -> show (Harness.Fig_bandwidth.fig6 ~max_endpoints ~patterns ()));
  timed_section "Fig. 7" (fun () -> show (Harness.Fig_runtime.fig7 ~max_endpoints ()));
  timed_section "Fig. 8" (fun () -> show (Harness.Fig_runtime.fig8 ~scale ()));
  timed_section "Fig. 9" (fun () -> show (Harness.Fig_vls.fig9 ~trials ()));
  timed_section "Fig. 10" (fun () -> show (Harness.Fig_vls.fig10 ~scale ()));
  timed_section "Heuristics (Section IV)" (fun () -> show (Harness.Fig_vls.heuristics ~trials ()));
  timed_section "Fig. 12" (fun () -> show (Harness.Fig_deimos.fig12 ~scale ~patterns ()));
  timed_section "Fig. 12 (dynamic)" (fun () ->
      show (Harness.Fig_deimos.fig12_dynamic ~scale ()));
  timed_section "Fig. 13" (fun () -> show (Harness.Fig_deimos.fig13 ~scale ()));
  timed_section "Fig. 14 (NAS BT)" (fun () -> show (Harness.Fig_deimos.fig14 ~scale ()));
  timed_section "Fig. 15 (NAS SP)" (fun () -> show (Harness.Fig_deimos.fig15 ~scale ()));
  timed_section "Fig. 16 (NAS FT)" (fun () -> show (Harness.Fig_deimos.fig16 ~scale ()));
  timed_section "Table II" (fun () -> show (Harness.Fig_deimos.table2 ~scale ()));
  timed_section "Ablation: SSSP initial weight (Fig. 1)" (fun () ->
      show (Harness.Ablations.sssp_initial_weight ()));
  timed_section "Ablation: hardened routings" (fun () ->
      show (Harness.Ablations.hardened_routings ~patterns ()));
  timed_section "Extension: dragonfly" (fun () -> show (Harness.Ablations.dragonfly ~patterns ()));
  timed_section "Ablation: layer balancing" (fun () -> show (Harness.Ablations.balancing ()));
  timed_section "Complexity (Props. 1-2)" (fun () ->
      show (Harness.Ablations.complexity ~max_endpoints ()));
  timed_section "Ablation: online cycle-check engines" (fun () ->
      show (online_engines ()));
  timed_section "Quality: path length and balance" (fun () ->
      show (Harness.Ablations.routing_quality ()));
  timed_section "Ablation: virtual-lane budget" (fun () -> show (Harness.Ablations.vl_budget ()));
  timed_section "Extension: multipath (LMC)" (fun () -> show (Harness.Ablations.multipath ()));
  timed_section "Extension: phased collectives" (fun () ->
      show (Harness.Ablations.collectives ()));
  timed_section "Extension: adversarial patterns" (fun () ->
      show (Harness.Ablations.adversarial_patterns ()));
  timed_section "Growth: fat tree accretes extensions" (fun () ->
      show (Harness.Growth.sweep ~patterns ()));
  timed_section "Capacity planner (Deimos)" (fun () ->
      let g = (Clusters.deimos ~scale:8 ()).Clusters.graph in
      match Harness.Planner.suggest ~candidates:5 ~patterns ~algorithm:"dfsssp" g with
      | Error e -> Printf.printf "  planner failed: %s\n" e
      | Ok suggestions ->
        List.iter
          (fun (s : Harness.Planner.suggestion) ->
            Printf.printf "  %-14s -- %-14s  eBB %.4f -> %.4f (%+.1f%%)\n" s.Harness.Planner.from_switch
              s.Harness.Planner.to_switch s.Harness.Planner.ebb_before s.Harness.Planner.ebb_after
              (100.0 *. s.Harness.Planner.gain))
          suggestions);
  timed_section "Fault tolerance (torus)" (fun () ->
      show (Harness.Fault_tolerance.sweep ~fabric:Harness.Fault_tolerance.Torus ~patterns ()));
  timed_section "Fault tolerance (fat tree)" (fun () ->
      show (Harness.Fault_tolerance.sweep ~fabric:Harness.Fault_tolerance.Fat_tree ~patterns ()));
  if Sys.getenv_opt "BENCH_SKIP_MICRO" = None then
    timed_section "Bechamel micro-benchmarks" micro;
  print_newline ();
  print_endline "bench: all experiments completed"

(* Cold-build workloads: back-to-back [Fabric.Manager.create] plus the
   first [Fabric.Manager.snapshot] — topology in, certified epoch 1
   live and servable — under [Fabric.Manager.default_config].

   The untraced run reports the end-to-end numbers. The traced run
   rebuilds the same tables stage by stage through the public calls the
   manager makes (SSSP, route materialisation, layer assignment, layer
   apply, the epoch swap gate, the snapshot), each wrapped in a span of
   the benchmark's own, and checks that the result equals
   [Manager.create]'s tables, so the stage table describes the shipped
   program and not a different one. *)

open Common

let config = Fabric.Manager.default_config

type build = {
  tables : Ftable.t;
  wall_s : float;
  rss_mb : float;  (** peak resident set during the build *)
}

(* One shipped-path cold build; [Error] when no certified epoch came
   out of it. *)
let shipped_build g =
  reset_peak_rss ();
  let t0 = now () in
  match Fabric.Manager.create ~config g with
  | Error msg -> Error msg
  | Ok mgr -> (
    let snap = Fabric.Manager.snapshot mgr in
    let wall_s = now () -. t0 in
    let rss_mb = peak_rss_mb "self" in
    Fabric.Manager.shutdown mgr;
    match snap with
    | Error msg -> Error ("snapshot: " ^ msg)
    | Ok s -> Ok { tables = s.Fabric.Epoch.tables; wall_s; rss_mb })

(* Same forwarding entries, same layer count, same layer for every
   pair. *)
let same_tables a b =
  let d = Ftable.diff a b in
  let layers_match = ref (Ftable.num_layers a = Ftable.num_layers b) in
  if !layers_match then
    Ftable.iter_pairs a (fun ~src ~dst _ ->
        if Ftable.layer a ~src ~dst <> Ftable.layer b ~src ~dst then layers_match := false);
  d.Ftable.entries_changed = 0 && !layers_match

(* Topology generation, repeated until [budget] seconds are spent (at
   least once); the graph and the time of each generation. *)
let generate spec ~budget =
  let start = now () in
  let rec go times =
    let t0 = now () in
    let g = parse_spec spec in
    let times = (now () -. t0) :: times in
    if now () -. start < budget then go times else (g, times)
  in
  go []

let certify_against g ft =
  let report = Analysis.Analyzer.analyze ~graph:g ft in
  if not (Analysis.Analyzer.ok report) then begin
    check_failed "tables do not certify against their fabric:\n%s"
      (Format.asprintf "%a" Analysis.Analyzer.pp report);
    false
  end
  else true

(* ------------------------------------------------------------------ *)
(* Untraced: the end-to-end numbers                                    *)
(* ------------------------------------------------------------------ *)

(* [build_s] is the fastest build of the run. On a shared host a build
   runs either alone or slowed by a neighbour, and the share of slowed
   builds changes from run to run, so the run median jumps between the
   two speeds; the fastest build is the program's own cost. The median
   is printed beside it. [peak_rss_mb] is the peak of the first build,
   the one a newly started controller makes: the OCaml runtime keeps the
   pages a build freed, so later builds start from a resident heap
   whose size depends on the history of the process. *)

(* The builds of one run, which may come in several slices. *)
type session = {
  spec : string;
  g : Graph.t;
  mutable setups : float list;
  mutable walls : float list;
  mutable attempted : int;
  mutable failed : int;
  mutable first : build option;
  mutable identical : bool;
}

(* One generation only before the first build, so its heap, and so its
   peak, is the same in every run. *)
let start spec =
  let g, setups = generate spec ~budget:0.0 in
  { spec; g; setups; walls = []; attempted = 0; failed = 0; first = None; identical = true }

(* Back-to-back builds for [seconds], at least [min_builds] of them; no
   build starts that the last one says would end after [seconds]. *)
let build_for s ~seconds ~min_builds =
  let deadline = now () +. seconds and n = ref 0 in
  let last () = match s.walls with w :: _ -> w | [] -> 0.0 in
  while !n < min_builds || now () +. last () < deadline do
    incr n;
    (* more set-up samples before every later build, so [setup_s] covers
       the same stretch of machine time as [build_s] *)
    if s.attempted > 0 then s.setups <- snd (generate s.spec ~budget:0.05) @ s.setups;
    Gc.compact ();
    s.attempted <- s.attempted + 1;
    match shipped_build s.g with
    | Error msg ->
      s.failed <- s.failed + 1;
      Printf.eprintf "build %d: no certified epoch: %s\n%!" s.attempted msg
    | Ok b -> (
      s.walls <- b.wall_s :: s.walls;
      match s.first with
      | None -> s.first <- Some b
      | Some f ->
        if not (same_tables f.tables b.tables) then begin
          s.identical <- false;
          check_failed "build %d produced tables different from build 1" s.attempted
        end)
  done

let finish s =
  (* Output checks, outside the timed window: the first table certifies
     independently against its fabric, and every later build equals it. *)
  let correct, layers, load, peak =
    match s.first with
    | None -> (false, nan, nan, nan)
    | Some { tables = ft; rss_mb; _ } ->
      let certified = certify_against s.g ft in
      let q = Simulator.Quality.measure ft in
      ( certified && s.identical,
        float_of_int (Ftable.num_layers ft),
        float_of_int q.Simulator.Quality.max_load,
        rss_mb )
  in
  let walls = Array.of_list (List.rev s.walls) in
  Printf.printf "cold %s: %d builds (%d failed), build wall n=%d, min %.3f median %.3f max %.3f\n" s.spec
    s.attempted s.failed (Array.length walls) (percentile 0.0 walls) (median walls) (percentile 1.0 walls);
  {
    metrics =
      [
        metric "setup_s" "s" (median (Array.of_list s.setups));
        metric "build_s" "s" (percentile 0.0 walls);
        metric "peak_rss_mb" "MB" peak;
        metric "layers_used" "count" layers;
        metric "max_channel_load" "routes" load;
      ];
    correct;
    attempted = s.attempted;
    failed = s.failed;
  }

(* ------------------------------------------------------------------ *)
(* Traced: the stage table                                             *)
(* ------------------------------------------------------------------ *)

type stages = {
  st : (string * float) list;  (** stage name, seconds; in build order *)
  counts : (string * float) list;
  wall : float;
  staged : Ftable.t;
}

let stage_names =
  [
    "routing.sssp_s";
    "routing.to_store_s";
    "layers.assign_s";
    "core.assign_other_s";
    "fabric.try_swap_s";
    "fabric.snapshot_s";
  ]

(* The manager's full build, stage by stage. Each stage is one public
   call (or, for the layer apply, the loop [Dfsssp.assign_layers] runs
   after [Layers.assign_store]), timed from here and wrapped in a span;
   the program's own counters and timers supply the finer splits. *)
let staged_build g =
  let times = ref [] in
  let stage name f =
    let t0 = now () in
    let r = Obs.Trace.with_span ("bench." ^ name) f in
    times := (name, now () -. t0) :: !times;
    r
  in
  let get what = function Ok x -> x | Error msg -> failwith (what ^ ": " ^ msg) in
  let c0 name = (name, counter_value name) and t0_ name = (name, timer_sum name) in
  let counters0 =
    List.map c0 [ "spf.trees"; "spf.cache_hits"; "layers.evictions"; "layers.cycles_broken" ]
  in
  let timers0 =
    List.map t0_
      [ "layers.condense"; "layers.evict"; "layers.rebuild"; "analysis.existence"; "analysis.certify" ]
  in
  let wall0 = now () in
  let staged, store, epochs =
    Obs.Trace.with_span "bench.build" @@ fun () ->
    let ft =
      stage "routing.sssp_s" (fun () ->
          let weights = Sssp.initial_weights g in
          Sssp.route_plane ~batch:config.Fabric.Manager.batch ~kernel:config.Fabric.Manager.kernel g
            ~weights)
      |> get "sssp"
    in
    let alloc0 = Gc.allocated_bytes () in
    let store = stage "routing.to_store_s" (fun () -> Ftable.to_store ft) |> get "to_store" in
    let alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1e6 in
    let outcome =
      stage "layers.assign_s" (fun () ->
          Layers.assign_store ~engine:config.Fabric.Manager.engine ~domains:config.Fabric.Manager.domains
            store ~max_layers:config.Fabric.Manager.max_layers ~heuristic:Heuristic.Weakest)
      |> get "assign"
    in
    stage "core.assign_other_s" (fun () ->
        Route_store.iter_pairs store (fun pair ->
            let src, dst = Ftable.pair_of_id ft pair in
            Ftable.set_layer ft ~src ~dst outcome.Layers.layer_of_path.(pair));
        Ftable.set_num_layers ft outcome.Layers.layers_used);
    let epochs = Fabric.Epoch.create () in
    ignore
      (stage "fabric.try_swap_s" (fun () -> fst (Fabric.Epoch.try_swap epochs ~label:"initial" ft))
      |> get "swap gate");
    ignore (stage "fabric.snapshot_s" (fun () -> Fabric.Epoch.snapshot epochs) |> get "snapshot");
    (ft, (store, alloc_mb), epochs)
  in
  ignore epochs;
  let wall = now () -. wall0 in
  let store, alloc_mb = store in
  let cd name = float_of_int (counter_value name - List.assoc name counters0) in
  let td name = timer_sum name -. List.assoc name timers0 in
  let st = List.rev !times in
  let s name = List.assoc name st in
  let split =
    [
      ("layers.condense_s", td "layers.condense");
      ("layers.evict_s", td "layers.evict");
      ("layers.rebuild_s", td "layers.rebuild");
      ("analysis.existence_s", td "analysis.existence");
      ("analysis.certify_s", td "analysis.certify");
      ( "core.verify_s",
        s "fabric.try_swap_s" -. td "analysis.existence" -. td "analysis.certify" );
      ( "layers.assign_other_s",
        s "layers.assign_s" -. td "layers.condense" -. td "layers.evict" -. td "layers.rebuild" );
      ( "core.assign_layers_s",
        s "routing.to_store_s" +. s "layers.assign_s" +. s "core.assign_other_s" );
    ]
  in
  let counts =
    [
      ("routing.paths", float_of_int (Route_store.num_paths store));
      ("routing.path_hops", float_of_int (Route_store.total_channels store));
      ("routing.to_store_alloc_mb", alloc_mb);
      ("spf.cache_hit_ratio", cd "spf.cache_hits" /. Float.max 1.0 (cd "spf.trees"));
      ("layers.evictions", cd "layers.evictions");
      ("layers.cycles_broken", cd "layers.cycles_broken");
    ]
  in
  { st = st @ split; counts; wall; staged }

let run_traced ~spec ~seconds ~min_builds =
  let g, parse = generate spec ~budget:1.0 in
  let sink, spans = collector () in
  let deadline = now () +. seconds in
  let untraced = ref [] and traced = ref [] and identical = ref true in
  let attempted = ref 0 and failed = ref 0 in
  let reference = ref None in
  (* Alternate shipped (tracing off) and staged (tracing on) builds so
     both see the same machine state. *)
  while !attempted < 2 * min_builds || now () < deadline do
    Gc.compact ();
    incr attempted;
    if !attempted mod 2 = 1 then begin
      match shipped_build g with
      | Error msg ->
        incr failed;
        Printf.eprintf "build %d: no certified epoch: %s\n%!" !attempted msg
      | Ok b ->
        untraced := b.wall_s :: !untraced;
        if !reference = None then reference := Some b.tables
    end
    else begin
      let r =
        Obs.Control.with_enabled true (fun () -> Obs.Trace.with_sink sink (fun () -> staged_build g))
      in
      (match !reference with
      | Some ft when same_tables ft r.staged -> ()
      | _ ->
        identical := false;
        check_failed "staged build tables differ from Manager.create's");
      traced := r :: !traced
    end
  done;
  let traced = Array.of_list (List.rev !traced) in
  let untraced_s = median (Array.of_list !untraced) in
  let med f = median (Array.map f traced) in
  let wall = med (fun r -> r.wall) in
  let spans = spans () in
  let nbuilds = float_of_int (Array.length traced) in
  let per_build name = total_time spans name /. nbuilds in
  let own_self name = self_time spans name /. nbuilds in
  (* coverage: the stage spans over the enclosing build span *)
  let staged_s = List.fold_left (fun acc n -> acc +. per_build ("bench." ^ n)) 0.0 stage_names in
  let build_span_s = per_build "bench.build" in
  let coverage = staged_s /. Float.max 1e-9 build_span_s in
  let first = traced.(0) in
  let metrics =
    [ metric "netgraph.parse_s" "s" (median (Array.of_list parse)) ]
    @ List.map (fun (n, _) -> metric n "s" (med (fun r -> List.assoc n r.st))) first.st
    @ List.map
        (fun (n, _) ->
          metric n
            (if n = "routing.to_store_alloc_mb" then "MB"
             else if n = "spf.cache_hit_ratio" then "ratio"
             else "count")
            (med (fun r -> List.assoc n r.counts)))
        first.counts
    @ [
        metric "build.traced_s" "s" wall;
        metric "build.other_s" "s" (build_span_s -. staged_s);
        metric "build.coverage" "ratio" coverage;
        metric "trace.overhead_frac" "ratio" ((wall /. untraced_s) -. 1.0);
        metric "span.fabric.try_swap_self_s" "s" (own_self "fabric.try_swap");
        metric "span.layers.assign_self_s" "s" (own_self "layers.assign");
        metric "span.sssp.route_destinations_s" "s" (per_build "sssp.route_destinations");
        metric "build.fail_frac" "ratio" (frac !failed ((!attempted + 1) / 2));
      ]
  in
  let correct =
    !identical && coverage >= 0.95
    && (match !reference with Some ft -> certify_against g ft | None -> false)
  in
  if coverage < 0.95 then check_failed "traced stages cover %.1f%% of the build (< 95%%)" (100.0 *. coverage);
  Printf.printf "cold %s traced: %d staged + %d shipped builds, stages cover %.2f%%\n" spec
    (Array.length traced) (List.length !untraced) (100.0 *. coverage);
  { metrics; correct; attempted = !attempted; failed = !failed }

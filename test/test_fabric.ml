(* Tests for the live fabric manager subsystem: id-stable fault
   injection, forwarding-table diffing, incremental repair, verified
   epoch swaps, the fallback policy, and the end-to-end acceptance run
   on a 4x4x4 torus under a mixed fault schedule. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let torus dims = fst (Topo_torus.torus ~dims ~terminals_per_switch:1)

let chan_between g a b =
  let found = ref (-1) in
  Array.iter
    (fun (c : Channel.t) -> if c.Channel.src = a && c.Channel.dst = b then found := c.Channel.id)
    (Graph.channels g);
  if !found < 0 then Alcotest.failf "no channel %d -> %d" a b;
  !found

let first_switch_cable g = (Degrade.switch_cables g).(0)

let route_dfsssp g =
  let weights = Routing.Sssp.initial_weights g in
  match Routing.Sssp.route_plane g ~weights with
  | Error msg -> Alcotest.failf "route_plane: %s" msg
  | Ok ft -> (
    match Dfsssp.assign_layers ft with
    | Ok ft -> ft
    | Error e -> Alcotest.failf "assign_layers: %s" (Dfsssp.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Events                                                               *)
(* ------------------------------------------------------------------ *)

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      match Fabric.Event.of_string (Fabric.Event.to_string ev) with
      | Ok ev' -> check Alcotest.bool (Fabric.Event.to_string ev) true (ev = ev')
      | Error msg -> Alcotest.failf "roundtrip %s: %s" (Fabric.Event.to_string ev) msg)
    [ Fabric.Event.Link_down 3; Fabric.Event.Link_up 0; Fabric.Event.Switch_drain 7; Fabric.Event.Switch_remove 12 ]

let test_event_parse_rejects_garbage () =
  List.iter
    (fun s -> check Alcotest.bool s true (Result.is_error (Fabric.Event.of_string s)))
    [ "explode 3"; "down"; "down x"; ""; "up 1 2" ]

(* ------------------------------------------------------------------ *)
(* Id-stable degrade: disable / restore / drain                         *)
(* ------------------------------------------------------------------ *)

let test_disable_restore_id_stable () =
  let g = torus [| 3; 3 |] in
  let nc = Graph.num_channels g in
  let cable = first_switch_cable g in
  match Degrade.disable_cable g ~cable with
  | Error msg -> Alcotest.failf "disable: %s" msg
  | Ok (g', chans) ->
    check Alcotest.int "channel ids preserved" nc (Graph.num_channels g');
    check Alcotest.int "two directed channels down" (nc - 2) (Graph.num_enabled_channels g');
    List.iter (fun c -> check Alcotest.bool "disabled" false (Graph.channel_enabled g' c)) chans;
    check Alcotest.(list int) "disabled_cables lists the pair" [ List.hd chans ] (Degrade.disabled_cables g');
    check Alcotest.bool "still connected" true (Graph.connected g');
    check Alcotest.bool "still valid" true (Result.is_ok (Graph.validate g'));
    (* the channel record itself is untouched: same endpoints, same id *)
    let c = Graph.channel g cable and c' = Graph.channel g' cable in
    check Alcotest.int "src stable" c.Channel.src c'.Channel.src;
    check Alcotest.int "dst stable" c.Channel.dst c'.Channel.dst;
    (match Degrade.restore_cable g' ~cable with
    | Error msg -> Alcotest.failf "restore: %s" msg
    | Ok (g'', chans') ->
      check Alcotest.(list int) "same pair restored" chans chans';
      check Alcotest.int "all channels back" nc (Graph.num_enabled_channels g'');
      check Alcotest.(list int) "nothing left disabled" [] (Degrade.disabled_cables g''))

let test_disable_rejections () =
  let g = torus [| 3; 3 |] in
  let t = (Graph.terminals g).(0) in
  let attach = (Graph.out_channels g t).(0) in
  check Alcotest.bool "terminal cable rejected" true (Result.is_error (Degrade.disable_cable g ~cable:attach));
  check Alcotest.bool "unknown cable rejected" true (Result.is_error (Degrade.disable_cable g ~cable:(-1)));
  let cable = first_switch_cable g in
  let g', _ = Result.get_ok (Degrade.disable_cable g ~cable) in
  check Alcotest.bool "double disable rejected" true (Result.is_error (Degrade.disable_cable g' ~cable));
  check Alcotest.bool "restore of an enabled cable rejected" true
    (Result.is_error (Degrade.restore_cable g ~cable))

let test_disable_cut_edge_rejected () =
  (* a line s0 - s1 - s2: both inter-switch cables are cut edges *)
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let s2 = Builder.add_switch b ~name:"s2" in
  let _ = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let _ = Builder.add_terminal b ~name:"t2" ~switch:s2 in
  let c01, _ = Builder.add_link b s0 s1 in
  let c12, _ = Builder.add_link b s1 s2 in
  let g = Builder.build b in
  List.iter
    (fun cable ->
      match Degrade.disable_cable g ~cable with
      | Ok _ -> Alcotest.failf "disabling cut cable %d should be rejected" cable
      | Error _ -> ())
    [ c01; c12 ]

let test_drain_switch () =
  let g = torus [| 3; 3 |] in
  let sw = (Graph.switches g).(0) in
  match Degrade.drain_switch g ~switch:sw with
  | Error msg -> Alcotest.failf "drain: %s" msg
  | Ok (g', chans) ->
    check Alcotest.bool "some cables drained" true (List.length chans >= 2);
    check Alcotest.int "whole pairs only" 0 (List.length chans mod 2);
    check Alcotest.bool "still connected" true (Graph.connected g')

let test_remove_switch_drops_disabled () =
  let g = torus [| 3; 3 |] in
  let victim = (Graph.switches g).(0) in
  let cable =
    Array.to_list (Degrade.switch_cables g)
    |> List.find (fun c ->
           let ch = Graph.channel g c in
           ch.Channel.src <> victim && ch.Channel.dst <> victim)
  in
  let a = (Graph.channel g cable).Channel.src and b = (Graph.channel g cable).Channel.dst in
  let name n = (Graph.node g n).Node.name in
  let g', _ = Result.get_ok (Degrade.disable_cable g ~cable) in
  match Degrade.remove_switch g' ~switch:victim with
  | Error msg -> Alcotest.failf "remove_switch: %s" msg
  | Ok g2 ->
    check Alcotest.int "rebuilt fabric has no disabled channels" (Graph.num_channels g2)
      (Graph.num_enabled_channels g2);
    let survived =
      Array.exists
        (fun (c : Channel.t) ->
          let ns = (Graph.node g2 c.Channel.src).Node.name
          and nd = (Graph.node g2 c.Channel.dst).Node.name in
          (ns = name a && nd = name b) || (ns = name b && nd = name a))
        (Graph.channels g2)
    in
    check Alcotest.bool "disabled cable dropped by the rebuild" false survived

(* ------------------------------------------------------------------ *)
(* Ftable.diff                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand-built fixture: two switches with one terminal each, one cable. *)
let diff_fixture () =
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let t1 = Builder.add_terminal b ~name:"t1" ~switch:s1 in
  let _ = Builder.add_link b s0 s1 in
  let g = Builder.build b in
  let route () =
    let ft = Routing.Ftable.create g ~algorithm:"hand" in
    List.iter
      (fun (node, dst, nxt) -> Routing.Ftable.set_next ft ~node ~dst ~channel:(chan_between g node nxt))
      [ (s0, t1, s1); (s1, t1, t1); (t0, t1, s0); (s1, t0, s0); (s0, t0, t0); (t1, t0, s1) ];
    ft
  in
  (g, s0, t0, t1, route)

let test_diff_identical () =
  let _, _, _, _, route = diff_fixture () in
  let d = Routing.Ftable.diff (route ()) (route ()) in
  check Alcotest.int "no dsts changed" 0 d.Routing.Ftable.dsts_changed;
  check Alcotest.int "no entries changed" 0 d.Routing.Ftable.entries_changed;
  check Alcotest.int "empty per_dst" 0 (Array.length d.Routing.Ftable.per_dst)

let test_diff_counts_changed_entries () =
  let g, s0, t0, t1, route = diff_fixture () in
  let a = route () and b = route () in
  (* point s0's entry for t1 at its terminal port instead — nonsense as a
     route, but a legal entry, and diff only counts disagreements *)
  Routing.Ftable.set_next b ~node:s0 ~dst:t1 ~channel:(chan_between g s0 t0);
  let d = Routing.Ftable.diff a b in
  check Alcotest.int "one dst changed" 1 d.Routing.Ftable.dsts_changed;
  check Alcotest.int "one entry changed" 1 d.Routing.Ftable.entries_changed;
  check Alcotest.(array (pair int int)) "per_dst pins the destination" [| (t1, 1) |] d.Routing.Ftable.per_dst

let test_diff_mismatch_rejected () =
  let _, _, _, _, route = diff_fixture () in
  let other = route_dfsssp (torus [| 3; 3 |]) in
  check Alcotest.bool "different fabrics rejected" true
    (match Routing.Ftable.diff (route ()) other with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Incremental repair                                                   *)
(* ------------------------------------------------------------------ *)

(* The regression the subsystem exists for: on a single-link failure the
   incremental path recomputes strictly fewer destinations than the full
   recompute would (which touches all of them). *)
let test_affected_strictly_fewer_than_full () =
  let g = torus [| 4; 4 |] in
  let ft = route_dfsssp g in
  let total = Graph.num_terminals g in
  let some_cable_in_use = ref false in
  Array.iter
    (fun cable ->
      let pair = Option.get (Graph.reverse_channel g cable) in
      let affected = Fabric.Repair.affected_destinations ft ~channels:[ cable; pair ] in
      if affected <> [] then some_cable_in_use := true;
      check Alcotest.bool "strictly fewer destinations than a full recompute" true
        (List.length affected < total))
    (Degrade.switch_cables g);
  check Alcotest.bool "routing does use the switch cables" true !some_cable_in_use

(* ------------------------------------------------------------------ *)
(* Manager                                                              *)
(* ------------------------------------------------------------------ *)

let test_manager_single_link_incremental () =
  let g = torus [| 4; 4 |] in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let total = Graph.num_terminals g in
  (* pick a cable some routes use but under the 50% repair budget *)
  let cable =
    Array.to_list (Degrade.switch_cables g)
    |> List.find (fun c ->
           let pair = Option.get (Graph.reverse_channel g c) in
           let n =
             List.length
               (Fabric.Repair.affected_destinations (Fabric.Manager.tables mgr) ~channels:[ c; pair ])
           in
           n > 0 && 2 * n <= total)
  in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down cable) in
  check Alcotest.bool "applied" true o.Fabric.Manager.applied;
  (match o.Fabric.Manager.action with
  | Fabric.Manager.Incremental { repaired; total = t } ->
    check Alcotest.bool "repaired a strict subset" true (repaired > 0 && repaired < t);
    (match o.Fabric.Manager.table_diff with
    | Some d ->
      check Alcotest.bool "kept trees copied verbatim" true (d.Routing.Ftable.dsts_changed <= repaired)
    | None -> Alcotest.fail "incremental swap without a table diff")
  | _ -> Alcotest.fail "expected an incremental repair");
  check Alcotest.bool "no fallback" false o.Fabric.Manager.fallback;
  check Alcotest.int "epoch advanced" 2 o.Fabric.Manager.epoch;
  (match o.Fabric.Manager.verify with
  | Some r ->
    check Alcotest.int "certified on the live layer count"
      (Routing.Ftable.num_layers (Fabric.Manager.tables mgr))
      r.Fabric.Epoch.certified_layers
  | None -> Alcotest.fail "swap without a gate verdict");
  (* bring the link back: the beneficiary repair must also end verified *)
  let o2 = Fabric.Manager.apply mgr (Fabric.Event.Link_up cable) in
  check Alcotest.bool "restore applied" true o2.Fabric.Manager.applied;
  check Alcotest.bool "restore ends verified" true (o2.Fabric.Manager.verify <> None);
  check Alcotest.bool "converged" true (Fabric.Manager.converged mgr)

let test_manager_rejects_bad_event () =
  let g = torus [| 3; 3 |] in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let t = (Graph.terminals g).(0) in
  let attach = (Graph.out_channels g t).(0) in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down attach) in
  check Alcotest.bool "not applied" false o.Fabric.Manager.applied;
  check Alcotest.int "epoch unchanged" 1 o.Fabric.Manager.epoch;
  check Alcotest.int "counted as rejected" 1 (Fabric.Metrics.events_rejected (Fabric.Manager.metrics mgr));
  check Alcotest.bool "rejection does not break convergence" true (Fabric.Manager.converged mgr)

(* Deterministic fallback: a ring needs two virtual layers, so with
   layer_budget = 1 the incremental path must refuse and the manager must
   fall back to a (verified) full recompute. *)
let test_manager_fallback_on_layer_budget () =
  let g = Topo_ring.make ~switches:8 ~terminals_per_switch:1 in
  let config = { Fabric.Manager.default_config with layer_budget = 1; repair_fraction = 1.0 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  check Alcotest.bool "ring routing needs multiple layers" true
    (Routing.Ftable.num_layers (Fabric.Manager.tables mgr) > 1);
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down (first_switch_cable g)) in
  check Alcotest.bool "applied" true o.Fabric.Manager.applied;
  check Alcotest.bool "fell back" true o.Fabric.Manager.fallback;
  (match o.Fabric.Manager.action with
  | Fabric.Manager.Full _ -> ()
  | _ -> Alcotest.fail "expected a full recompute after the fallback");
  (match o.Fabric.Manager.verify with
  | Some r ->
    check Alcotest.int "fallback tables certified on their layer count"
      (Routing.Ftable.num_layers (Fabric.Manager.tables mgr))
      r.Fabric.Epoch.certified_layers
  | None -> Alcotest.fail "fallback swap without a gate verdict");
  check Alcotest.bool "fallback counted" true (Fabric.Metrics.fallbacks (Fabric.Manager.metrics mgr) >= 1);
  check Alcotest.bool "converged despite the fallback" true (Fabric.Manager.converged mgr)

(* The healthy 8x8 torus needs all 8 layers; downing cable 290 forces a
   full recompute that runs out of layers, so the stale epoch stays. That
   event must show up in the counters and in the printed summary. *)
let test_manager_counts_failed_full_recompute () =
  let g = fst (Topo_torus.torus ~dims:[| 8; 8 |] ~terminals_per_switch:4) in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down 290) in
  check Alcotest.bool "applied" true o.Fabric.Manager.applied;
  check Alcotest.bool "no epoch installed" true (o.Fabric.Manager.verify = None);
  check Alcotest.int "stale epoch kept" 1 o.Fabric.Manager.epoch;
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.int "failure counted" 1 (Fabric.Metrics.full_recompute_failures m);
  check Alcotest.int "no full recompute succeeded" 0 (Fabric.Metrics.full_recomputes m);
  let printed = Format.asprintf "%a" Fabric.Metrics.pp m in
  check Alcotest.bool "summary shows the failure" true
    (Testutil.contains printed "full recomputes: 0, failed: 1")

(* The acceptance run from the issue: 4x4x4 torus, 10-event mixed
   schedule (link downs, a link up, one switch removal). Every applied
   event must end in a verified deadlock-free swap, and single-link
   events must repair under 50% of the destinations. *)
let test_manager_acceptance_4x4x4 () =
  let g = torus [| 4; 4; 4 |] in
  let rng = Rng.create 3 in
  let schedule = Fabric.Schedule.generate g ~rng ~events:10 ~switch_removals:1 () in
  check Alcotest.int "full-length schedule" 10 (List.length schedule);
  check Alcotest.bool "schedule restores a link" true
    (List.exists (function Fabric.Event.Link_up _ -> true | _ -> false) schedule);
  check Alcotest.bool "schedule removes a switch" true
    (List.exists (function Fabric.Event.Switch_remove _ -> true | _ -> false) schedule);
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let outcomes = Fabric.Manager.run mgr schedule in
  List.iter
    (fun (o : Fabric.Manager.outcome) ->
      check Alcotest.bool "event applied" true o.Fabric.Manager.applied;
      match o.Fabric.Manager.action with
      | Fabric.Manager.Noop -> ()
      | Fabric.Manager.Incremental { repaired; total } ->
        check Alcotest.bool "single-link repair under 50% of destinations" true (2 * repaired < total);
        (match o.Fabric.Manager.verify with
        | Some r ->
          check Alcotest.bool "incremental swap certified within the budget" true
            (r.Fabric.Epoch.certified_layers <= 8)
        | None -> Alcotest.fail "incremental swap without certification")
      | Fabric.Manager.Full _ -> (
        match o.Fabric.Manager.verify with
        | Some r ->
          check Alcotest.bool "full swap certified within the budget" true
            (r.Fabric.Epoch.certified_layers <= 8)
        | None -> Alcotest.fail "full swap without certification"))
    outcomes;
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.bool "the switch removal forced a full recompute" true (Fabric.Metrics.full_recomputes m >= 1);
  check Alcotest.bool "incremental repairs dominated" true (Fabric.Metrics.incremental_repairs m >= 5);
  check Alcotest.bool "overall repaired fraction under 50%" true (Fabric.Metrics.repaired_fraction m < 0.5);
  check Alcotest.bool "converged" true (Fabric.Manager.converged mgr);
  check Alcotest.bool "final tables deadlock-free (Kahn oracle)" true
    (Oracle.Acyclic.table_acyclic (Fabric.Manager.tables mgr))

(* ------------------------------------------------------------------ *)
(* Epoch snapshots and shutdown (the controller daemon's serving path)   *)
(* ------------------------------------------------------------------ *)

let test_snapshot_cached_per_epoch () =
  let g = torus [| 3; 3 |] in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let snap1 =
    match Fabric.Manager.snapshot mgr with
    | Ok s -> s
    | Error msg -> Alcotest.failf "snapshot: %s" msg
  in
  check Alcotest.int "snapshot epoch" (Fabric.Manager.epoch mgr) snap1.Fabric.Epoch.snap_epoch;
  (* Same epoch, same export: the arena walk is paid once. *)
  let snap1' = Result.get_ok (Fabric.Manager.snapshot mgr) in
  check Alcotest.bool "cached store" true (snap1.Fabric.Epoch.store == snap1'.Fabric.Epoch.store);
  (* A swap installs a new snapshot; the old one is untouched (graceful
     drain for readers holding it). *)
  let paths_before = Deadlock.Route_store.num_paths snap1.Fabric.Epoch.store in
  check Alcotest.bool "snapshot populated" true (paths_before > 0);
  let cable = first_switch_cable g in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down cable) in
  check Alcotest.bool "event applied" true o.Fabric.Manager.applied;
  let snap2 = Result.get_ok (Fabric.Manager.snapshot mgr) in
  check Alcotest.bool "new epoch exported" true
    (snap2.Fabric.Epoch.snap_epoch > snap1.Fabric.Epoch.snap_epoch);
  (* the swap installed a new export; the old one was not mutated *)
  check Alcotest.int "old snapshot still serves every pair" paths_before
    (Deadlock.Route_store.num_paths snap1.Fabric.Epoch.store);
  check Alcotest.bool "stores distinct" true
    (not (snap1.Fabric.Epoch.store == snap2.Fabric.Epoch.store))

let test_shutdown_idempotent_and_usable () =
  let g = torus [| 4; 4 |] in
  let config = { Fabric.Manager.default_config with domains = 2 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  let cable = first_switch_cable g in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down cable) in
  check Alcotest.bool "applied with pool" true o.Fabric.Manager.applied;
  Fabric.Manager.shutdown mgr;
  Fabric.Manager.shutdown mgr;
  (* Shutdown releases the domain pool and flushes sinks but the manager
     stays usable: later recomputes just run without a persistent pool. *)
  let o2 = Fabric.Manager.apply mgr (Fabric.Event.Link_up cable) in
  check Alcotest.bool "applied after shutdown" true o2.Fabric.Manager.applied;
  Fabric.Manager.shutdown mgr

(* ------------------------------------------------------------------ *)
(* The one-walk swap gate                                                *)
(* ------------------------------------------------------------------ *)

module Rs = Deadlock.Route_store
module Ft = Routing.Ftable

(* Reference for the gate's statistics, independent of the arena:
   every pair's path as a list walk via Ftable.path, minimality against
   per-destination reverse BFS. *)
let oracle_stats ft =
  let g = Ft.graph ft in
  let terminals = Graph.terminals g in
  let pairs = ref 0 and max_hops = ref 0 and total = ref 0 and minimal = ref true in
  Array.iter
    (fun dst ->
      let dist = Array.make (Graph.num_nodes g) max_int in
      let queue = Queue.create () in
      dist.(dst) <- 0;
      Queue.add dst queue;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        Array.iter
          (fun c ->
            let u = (Graph.channel g c).Channel.src in
            if dist.(u) = max_int then begin
              dist.(u) <- dist.(v) + 1;
              Queue.add u queue
            end)
          (Graph.in_channels g v)
      done;
      Array.iter
        (fun src ->
          if src <> dst then
            match Ft.path ft ~src ~dst with
            | None -> Alcotest.failf "oracle: no route %d -> %d" src dst
            | Some p ->
              if not (Path.is_consistent g p) then Alcotest.failf "oracle: inconsistent path %d -> %d" src dst;
              let hops = Path.length p in
              incr pairs;
              total := !total + hops;
              max_hops := max !max_hops hops;
              if hops > dist.(src) then minimal := false)
        terminals)
    terminals;
  {
    Ft.pairs = !pairs;
    max_hops = !max_hops;
    avg_hops = (if !pairs = 0 then 0.0 else float_of_int !total /. float_of_int !pairs);
    minimal = !minimal;
  }

(* Reference swap gate composed from the table-level entry points, each
   walking the table itself: the existence gate, certify via
   Cert.of_table and Cert.check_table, then the old verifier — the
   completeness and stats walk of Ftable.validate plus the Kahn proof of
   every layer (Oracle.Acyclic) — with the snapshot's paths left to a
   lazy Ftable.to_store (check_snapshot_matches). The gate, whose one
   deadlock proof is the certificate, must agree with it. *)
let oracle_gate candidate =
  let open Analysis in
  let ex = Existence.analyze (Ft.graph candidate) in
  if ex.Existence.min_layers_lb > Ft.num_layers candidate then
    Error
      (Printf.sprintf "existence: layer budget %d is below the provable minimum %d for this fabric"
         (Ft.num_layers candidate) ex.Existence.min_layers_lb)
  else
    match Cert.of_table candidate with
    | Error e -> Error ("certificate: " ^ Cert.error_to_string e)
    | Ok cert -> (
      match Cert.check_table cert candidate with
      | Error msg -> Error ("certificate: checker refuted the generated witness: " ^ msg)
      | Ok () -> (
        match Ft.validate candidate with
        | Error msg -> Error ("incomplete routing: " ^ msg)
        | Ok stats ->
          if Oracle.Acyclic.table_acyclic candidate then Ok (stats, Cert.num_layers cert)
          else Error "candidate tables are not deadlock-free"))

let prefix msg = match String.index_opt msg ':' with Some i -> String.sub msg 0 i | None -> msg

let copy_table ?layer ft =
  let g = Ft.graph ft in
  let c = Ft.create g ~algorithm:(Ft.algorithm ft) in
  Array.iter
    (fun dst ->
      for node = 0 to Graph.num_nodes g - 1 do
        match Ft.next ft ~node ~dst with
        | Some channel -> Ft.set_next c ~node ~dst ~channel
        | None -> ()
      done)
    (Graph.terminals g);
  Ft.iter_pairs ft (fun ~src ~dst _ ->
      Ft.set_layer c ~src ~dst (match layer with Some l -> l | None -> Ft.layer ft ~src ~dst));
  Ft.set_num_layers c (match layer with Some _ -> 1 | None -> Ft.num_layers ft);
  c

(* The snapshot serves exactly the active tables' paths. *)
let check_snapshot_matches name (s : Fabric.Epoch.snapshot) =
  let fresh =
    match Ft.to_store s.Fabric.Epoch.tables with
    | Ok st -> st
    | Error msg -> Alcotest.failf "%s: active tables do not walk: %s" name msg
  in
  let st = s.Fabric.Epoch.store in
  check Alcotest.int (name ^ ": capacity") (Rs.capacity fresh) (Rs.capacity st);
  check Alcotest.int (name ^ ": num_paths") (Rs.num_paths fresh) (Rs.num_paths st);
  check Alcotest.int (name ^ ": total_channels") (Rs.total_channels fresh) (Rs.total_channels st);
  for pair = 0 to Rs.capacity fresh - 1 do
    if Rs.mem fresh ~pair <> Rs.mem st ~pair
       || (Rs.mem fresh ~pair && Rs.to_path fresh ~pair <> Rs.to_path st ~pair)
    then Alcotest.failf "%s: snapshot path of pair %d differs from the active tables'" name pair
  done;
  check Alcotest.int (name ^ ": snapshot layers") (Ft.num_layers s.Fabric.Epoch.tables)
    s.Fabric.Epoch.num_layers

(* Offer one candidate to [epochs] and to the oracle: same verdict, same
   refusal prefix, same stats and layer count; an admitted candidate becomes the
   snapshot, a refused one leaves the epoch exactly as it was. *)
let gate_parity epochs name candidate =
  let before = Fabric.Epoch.epoch epochs in
  let snap_before = Result.to_option (Fabric.Epoch.snapshot epochs) in
  let active_before = Fabric.Epoch.active epochs in
  let expected = oracle_gate candidate in
  let got, _ = Fabric.Epoch.try_swap epochs ~label:name candidate in
  match (expected, got) with
  | Ok (stats, layers), Ok v ->
    check Alcotest.bool (name ^ ": same stats") true (stats = v.Fabric.Epoch.stats);
    check Alcotest.int (name ^ ": same certified layers") layers v.Fabric.Epoch.certified_layers;
    check Alcotest.bool (name ^ ": stats match the list walk") true
      (v.Fabric.Epoch.stats = oracle_stats candidate);
    check Alcotest.int (name ^ ": epoch advanced") (before + 1) (Fabric.Epoch.epoch epochs);
    let s = Result.get_ok (Fabric.Epoch.snapshot epochs) in
    check Alcotest.int (name ^ ": snapshot epoch") (before + 1) s.Fabric.Epoch.snap_epoch;
    check Alcotest.bool (name ^ ": snapshot serves the candidate") true (s.Fabric.Epoch.tables == candidate);
    check_snapshot_matches name s
  | Error e, Error e' ->
    check Alcotest.string (name ^ ": refusal prefix") (prefix e) (prefix e');
    check Alcotest.int (name ^ ": epoch kept") before (Fabric.Epoch.epoch epochs);
    check Alcotest.bool (name ^ ": active kept") true
      (match (active_before, Fabric.Epoch.active epochs) with
      | Some a, Some b -> a == b
      | None, None -> true
      | _ -> false);
    check Alcotest.bool (name ^ ": snapshot kept") true
      (match (snap_before, Result.to_option (Fabric.Epoch.snapshot epochs)) with
      | Some a, Some b -> a == b && a.Fabric.Epoch.store == b.Fabric.Epoch.store
      | None, None -> true
      | _ -> false)
  | Ok _, Error e -> Alcotest.failf "%s: oracle admits, gate refuses: %s" name e
  | Error e, Ok _ -> Alcotest.failf "%s: oracle refuses (%s), gate admits" name e

(* Every registry algorithm that accepts the fabric, plus DFSSSP's
   tables flattened onto one layer (cyclic wherever DFSSSP needed more),
   through one epoch sequence. *)
let gate_parity_on name g =
  let epochs = Fabric.Epoch.create () in
  List.iter
    (fun (a : Dfsssp.Registry.algorithm) ->
      match a.Dfsssp.Registry.run g with
      | Error _ -> ()
      | Ok ft ->
        gate_parity epochs (name ^ "/" ^ a.Dfsssp.Registry.name) ft;
        if a.Dfsssp.Registry.name = "dfsssp" then
          gate_parity epochs (name ^ "/flattened") (copy_table ~layer:0 ft))
    (Dfsssp.Registry.all ())

let test_gate_parity_fig_fabrics () =
  for t = 0 to 1 do
    let rng = Rng.create ((7 * 10007) + (t * 31)) in
    gate_parity_on (Printf.sprintf "fig9 random %d" t)
      (Topo_random.make ~switches:32 ~switch_radix:16 ~terminals:64 ~inter_links:80 ~rng)
  done;
  List.iter
    (fun (s : Clusters.system) -> gate_parity_on ("fig10 " ^ s.Clusters.name) s.Clusters.graph)
    (Clusters.all ~scale:16 ())

let test_gate_parity_zoo () =
  let dir =
    match Harness.Zoo.find_corpus_dir () with
    | Some d -> d
    | None -> Alcotest.fail "examples/zoo corpus not found"
  in
  List.iter
    (fun spec ->
      match Harness.Topospec.parse spec with
      | Ok t -> gate_parity_on spec t.Harness.Topospec.graph
      | Error msg -> Alcotest.failf "%s: %s" spec msg)
    (Harness.Zoo.corpus_specs ~dir @ [ "jellyfish:14,8,5:7"; "xpander:4,5:11" ])

(* The manager's candidates over a churn replay: after every event, the
   tables the manager admitted and their one-layer flattening go through
   a mirror epoch sequence, each compared with the oracle. *)
let test_gate_parity_torus_replay () =
  let g = fst (Topo_torus.torus ~dims:[| 8; 8 |] ~terminals_per_switch:4) in
  let schedule = Fabric.Schedule.generate g ~rng:(Rng.create 3) ~events:14 () in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let epochs = Fabric.Epoch.create () in
  gate_parity epochs "initial" (copy_table (Fabric.Manager.tables mgr));
  check_snapshot_matches "manager initial" (Result.get_ok (Fabric.Manager.snapshot mgr));
  List.iteri
    (fun i ev ->
      let o = Fabric.Manager.apply mgr ev in
      let name = Printf.sprintf "event %d (%s)" i (Fabric.Event.to_string ev) in
      check Alcotest.bool (name ^ ": applied") true o.Fabric.Manager.applied;
      let snap = Result.get_ok (Fabric.Manager.snapshot mgr) in
      check Alcotest.int (name ^ ": manager snapshot is the live epoch") (Fabric.Manager.epoch mgr)
        snap.Fabric.Epoch.snap_epoch;
      check_snapshot_matches ("manager " ^ name) snap;
      let ft = Fabric.Manager.tables mgr in
      gate_parity epochs name (copy_table ft);
      gate_parity epochs (name ^ " flattened") (copy_table ~layer:0 ft))
    schedule

(* A forwarding loop: two adjacent switches pointing at each other for
   one destination. *)
let looping_table () =
  let g = torus [| 3; 3 |] in
  let ft = copy_table (route_dfsssp g) in
  let dst = (Graph.terminals g).(0) in
  let home = (Graph.channel g (Graph.out_channels g dst).(0)).Channel.dst in
  let a, b =
    Array.to_list (Degrade.switch_cables g)
    |> List.map (fun c -> ((Graph.channel g c).Channel.src, (Graph.channel g c).Channel.dst))
    |> List.find (fun (a, b) -> a <> home && b <> home)
  in
  Ft.set_next ft ~node:a ~dst ~channel:(chan_between g a b);
  Ft.set_next ft ~node:b ~dst ~channel:(chan_between g b a);
  (g, ft)

let expect_refusal epochs ~prefix:p name candidate =
  let epoch = Fabric.Epoch.epoch epochs in
  let active = Fabric.Epoch.active epochs in
  let snap = Result.get_ok (Fabric.Epoch.snapshot epochs) in
  (match Fabric.Epoch.try_swap epochs ~label:name candidate with
  | Ok _, _ -> Alcotest.failf "%s: admitted" name
  | Error msg, _ ->
    if not (String.starts_with ~prefix:p msg) then Alcotest.failf "%s: refused as %S, want %s" name msg p);
  check Alcotest.int (name ^ ": epoch kept") epoch (Fabric.Epoch.epoch epochs);
  check Alcotest.bool (name ^ ": active kept") true
    (match (active, Fabric.Epoch.active epochs) with Some a, Some b -> a == b | _ -> false);
  let snap' = Result.get_ok (Fabric.Epoch.snapshot epochs) in
  check Alcotest.int (name ^ ": snap_epoch kept") snap.Fabric.Epoch.snap_epoch snap'.Fabric.Epoch.snap_epoch;
  check Alcotest.bool (name ^ ": same physical store") true (snap.Fabric.Epoch.store == snap'.Fabric.Epoch.store)

let test_gate_fails_closed () =
  let g, looping = looping_table () in
  let epochs = Fabric.Epoch.create () in
  check Alcotest.bool "no snapshot before the first epoch" true
    (Result.is_error (Fabric.Epoch.snapshot epochs));
  (match Fabric.Epoch.try_swap epochs ~label:"good" (route_dfsssp g) with
  | Ok _, _ -> ()
  | Error msg, _ -> Alcotest.failf "good tables refused: %s" msg);
  expect_refusal epochs ~prefix:"incomplete routing:" "forwarding loop" looping;
  (* a 4x4 torus needs two layers; on one, its CDG is cyclic *)
  let cyclic = copy_table ~layer:0 (route_dfsssp (torus [| 4; 4 |])) in
  check Alcotest.bool "the flattened torus is really cyclic" false (Oracle.Acyclic.table_acyclic cyclic);
  expect_refusal epochs ~prefix:"certificate:" "cyclic layers" cyclic;
  check Alcotest.int "only the good swap installed" 1 (List.length (Fabric.Epoch.history epochs))

(* No gate consumer writes into the arena they share: the snapshot is
   that arena, so a write would change what the epoch serves. *)
let test_gate_store_read_only () =
  let ft = route_dfsssp (torus [| 4; 4 |]) in
  let store, layer_of_path = Result.get_ok (Analysis.Cert.artifacts_of_table ft) in
  let shape () = (Rs.num_paths store, Rs.total_channels store, Array.copy (Rs.buffer store)) in
  let before = shape () and layers_before = Array.copy layer_of_path in
  let num_layers = Ft.num_layers ft in
  check Alcotest.bool "certified" true
    (Result.is_ok (Analysis.Analyzer.certify_store ~num_layers store ~layer_of_path));
  check Alcotest.bool "stats collected" true (Result.is_ok (Ft.validate_store store));
  let n, c, buf = before and n', c', buf' = shape () in
  check Alcotest.int "num_paths unchanged" n n';
  check Alcotest.int "total_channels unchanged" c c';
  check Alcotest.bool "arena unchanged" true (buf = buf');
  check Alcotest.bool "layer assignment unchanged" true (layers_before = layer_of_path);
  (* and through the gate itself: the installed snapshot still holds
     what a fresh walk of the admitted tables holds *)
  let epochs = Fabric.Epoch.create () in
  ignore (Fabric.Epoch.try_swap epochs ~label:"initial" ft);
  check_snapshot_matches "after the gate" (Result.get_ok (Fabric.Epoch.snapshot epochs))

(* ------------------------------------------------------------------ *)
(* Schedules                                                            *)
(* ------------------------------------------------------------------ *)

let test_schedule_deterministic_roundtrip () =
  let g = torus [| 4; 4 |] in
  let gen seed =
    Fabric.Schedule.generate g ~rng:(Rng.create seed) ~events:8 ~switch_removals:1 ~drains:1 ()
  in
  check Alcotest.bool "deterministic in the seed" true (gen 7 = gen 7);
  let s = gen 7 in
  check Alcotest.bool "non-trivial schedule" true (List.length s > 0);
  match Fabric.Schedule.of_string (Fabric.Schedule.to_string s) with
  | Ok s' -> check Alcotest.bool "text roundtrip" true (s = s')
  | Error msg -> Alcotest.failf "roundtrip: %s" msg

let test_schedule_parse () =
  match Fabric.Schedule.of_string "# maintenance window\ndown 3\n\nup 3\nremove 1\n" with
  | Ok [ Fabric.Event.Link_down 3; Fabric.Event.Link_up 3; Fabric.Event.Switch_remove 1 ] -> ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Fabric.Schedule.to_string s)
  | Error msg -> Alcotest.failf "parse: %s" msg

(* ------------------------------------------------------------------ *)
(* One pipeline config                                                  *)
(* ------------------------------------------------------------------ *)

let bad_fractions = [ 1.5; -0.1; Float.nan ]

let test_config_validate () =
  check Alcotest.bool "default valid" true (Result.is_ok (Dfsssp.Config.validate Dfsssp.Config.default));
  check Alcotest.bool "bounds valid" true
    (List.for_all
       (fun repair_fraction ->
         Result.is_ok (Dfsssp.Config.validate { Dfsssp.Config.default with repair_fraction }))
       [ 0.0; 1.0 ]);
  List.iter
    (fun repair_fraction ->
      match Dfsssp.Config.validate { Dfsssp.Config.default with repair_fraction } with
      | Ok _ -> Alcotest.failf "repair_fraction %g accepted" repair_fraction
      | Error msg ->
        check Alcotest.bool (Printf.sprintf "%g: names the field" repair_fraction) true
          (Testutil.contains msg "repair_fraction"))
    bad_fractions;
  let d = Dfsssp.Config.default in
  List.iter
    (fun (field, c) ->
      match Dfsssp.Config.validate c with
      | Ok _ -> Alcotest.failf "%s 0 accepted" field
      | Error msg -> check Alcotest.bool (field ^ ": names the field") true (Testutil.contains msg field))
    [
      ("max_layers", { d with max_layers = 0 });
      ("layer_budget", { d with layer_budget = 0 });
      ("batch", { d with batch = 0 });
      ("domains", { d with domains = 0 });
    ]

(* The manager refuses an invalid config with the validator's own
   message — before routing anything. *)
let test_manager_rejects_bad_config () =
  let g = torus [| 3; 3 |] in
  List.iter
    (fun repair_fraction ->
      let config = { Fabric.Manager.default_config with repair_fraction } in
      let expected =
        match Dfsssp.Config.validate config with
        | Error msg -> msg
        | Ok _ -> Alcotest.failf "repair_fraction %g accepted" repair_fraction
      in
      Alcotest.check_raises (Printf.sprintf "repair_fraction %g" repair_fraction)
        (Invalid_argument expected) (fun () -> ignore (Fabric.Manager.create ~config g)))
    bad_fractions

(* The shipped tables, pinned: digests of [Ftable_io.to_string] under
   [Dfsssp.Config.default], for [Dfsssp.route] and [Manager.create]
   alike. A change here changes what every fabric is routed with. *)
let test_pinned_tables () =
  List.iter
    (fun (spec, digest) ->
      let g =
        match Harness.Topospec.parse spec with
        | Ok t -> t.Harness.Topospec.graph
        | Error e -> Alcotest.failf "%s: %s" spec e
      in
      let hex ft = Digest.to_hex (Digest.string (Routing.Ftable_io.to_string ft)) in
      (match Dfsssp.route ~config:Dfsssp.Config.default g with
      | Ok ft -> check Alcotest.string (spec ^ ": Dfsssp.route") digest (hex ft)
      | Error e -> Alcotest.failf "%s: %s" spec (Dfsssp.error_to_string e));
      match Fabric.Manager.create ~config:Dfsssp.Config.default g with
      | Ok m ->
        check Alcotest.string (spec ^ ": Manager.create") digest (hex (Fabric.Manager.tables m));
        Fabric.Manager.shutdown m
      | Error msg -> Alcotest.failf "%s: %s" spec msg)
    [
      ("torus:6x6:2", "052cbc63964ed33727cfe10d926e2621");
      ("xgft:2,4/1,2:16", "dd970e24a5bb01ea1b1a2eb7cbddbbc7");
      ("jellyfish:14,8,5:7", "9231fa6d2b173cc451f9ed789d5a5093");
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fabric"
    [
      ( "event",
        [
          Alcotest.test_case "text roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_event_parse_rejects_garbage;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "disable/restore keeps ids" `Quick test_disable_restore_id_stable;
          Alcotest.test_case "rejections" `Quick test_disable_rejections;
          Alcotest.test_case "cut edges survive" `Quick test_disable_cut_edge_rejected;
          Alcotest.test_case "drain keeps connectivity" `Quick test_drain_switch;
          Alcotest.test_case "rebuild drops disabled cables" `Quick test_remove_switch_drops_disabled;
        ] );
      ( "ftable-diff",
        [
          Alcotest.test_case "identical tables" `Quick test_diff_identical;
          Alcotest.test_case "counts changed entries" `Quick test_diff_counts_changed_entries;
          Alcotest.test_case "mismatched fabrics rejected" `Quick test_diff_mismatch_rejected;
        ] );
      ( "repair",
        [
          Alcotest.test_case "affected < full recompute" `Quick test_affected_strictly_fewer_than_full;
        ] );
      ( "manager",
        [
          Alcotest.test_case "single link down/up incremental" `Quick test_manager_single_link_incremental;
          Alcotest.test_case "bad events rejected" `Quick test_manager_rejects_bad_event;
          Alcotest.test_case "layer budget fallback" `Quick test_manager_fallback_on_layer_budget;
          Alcotest.test_case "failed full recompute counted" `Quick test_manager_counts_failed_full_recompute;
          Alcotest.test_case "acceptance: 4x4x4 torus, mixed schedule" `Quick test_manager_acceptance_4x4x4;
        ] );
      ( "epoch-snapshot",
        [
          Alcotest.test_case "cached per epoch, immutable" `Quick test_snapshot_cached_per_epoch;
          Alcotest.test_case "shutdown idempotent, manager usable" `Quick test_shutdown_idempotent_and_usable;
        ] );
      ( "swap-gate",
        [
          Alcotest.test_case "parity: fig 9/10 fabrics" `Quick test_gate_parity_fig_fabrics;
          Alcotest.test_case "parity: zoo sample" `Quick test_gate_parity_zoo;
          Alcotest.test_case "parity: torus 8x8 replay" `Quick test_gate_parity_torus_replay;
          Alcotest.test_case "fails closed" `Quick test_gate_fails_closed;
          Alcotest.test_case "shared store read-only" `Quick test_gate_store_read_only;
        ] );
      ( "config",
        [
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "manager rejects a bad config" `Quick test_manager_rejects_bad_config;
          Alcotest.test_case "pinned shipped tables" `Quick test_pinned_tables;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic + roundtrip" `Quick test_schedule_deterministic_roundtrip;
          Alcotest.test_case "parser" `Quick test_schedule_parse;
        ] );
    ]

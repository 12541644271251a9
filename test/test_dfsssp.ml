(* End-to-end tests for the DFSSSP core library: deadlock-freedom with
   minimal SSSP routes on every topology class (certified by the trusted
   checker), the certifier against the Kahn oracle, and the algorithm
   registry. *)

let check = Alcotest.check

let qtest ?(count = 30) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let expect label = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" label (Dfsssp.error_to_string e)

let stats label ft =
  match Routing.Ftable.validate ft with
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" label e

let certified ft = Result.is_ok (Analysis.Analyzer.certify ft)

let fixtures =
  lazy
    [
      ("ring5", Topo_ring.make ~switches:5 ~terminals_per_switch:1);
      ("ring8", Topo_ring.make ~switches:8 ~terminals_per_switch:2);
      ("torus4x4", fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2));
      ("torus3x3x3", fst (Topo_torus.torus ~dims:[| 3; 3; 3 |] ~terminals_per_switch:1));
      ("hypercube4", fst (Topo_hypercube.make ~dim:4 ~terminals_per_switch:1));
      ("tree62", Topo_tree.make ~k:6 ~n:2 ());
      ("xgft", Topo_xgft.make ~ms:[| 4; 4 |] ~ws:[| 2; 2 |] ~endpoints:48);
      ("kautz", Topo_kautz.make ~b:2 ~n:3 ~endpoints:36);
      ("odin", (Clusters.odin ~scale:4 ()).Clusters.graph);
      ("deimos", (Clusters.deimos ~scale:8 ()).Clusters.graph);
    ]

let test_deadlock_free_everywhere () =
  List.iter
    (fun (name, g) ->
      let ft = expect name (Dfsssp.route g) in
      let num_layers = Routing.Ftable.num_layers ft in
      (match Analysis.Analyzer.certify ft with
      | Error e -> Alcotest.failf "%s: not certified: %s" name e
      | Ok cert ->
        (* the certificate covers the declared layers and every used one,
           so equality means no route rides a layer past the count *)
        check Alcotest.int (name ^ " layers consistent") num_layers (Analysis.Cert.num_layers cert));
      Alcotest.(check bool) (name ^ " minimal") true (stats name ft).Routing.Ftable.minimal;
      Alcotest.(check bool) (name ^ " within 8 layers") true (num_layers <= 8))
    (Lazy.force fixtures)

let test_paths_equal_sssp () =
  (* DFSSSP must not change SSSP's routes — only assign layers. *)
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  let sssp = Result.get_ok (Routing.Sssp.route g) in
  let dfsssp = expect "dfsssp" (Dfsssp.route g) in
  Routing.Ftable.iter_pairs sssp (fun ~src ~dst p ->
      match Routing.Ftable.path dfsssp ~src ~dst with
      | Some p' -> check Alcotest.(array int) "same route" p p'
      | None -> Alcotest.fail "route lost")

let test_ring_needs_two_layers () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  check Alcotest.int "ring layers" 2 (expect "layers" (Dfsssp.layers_required g))

let test_tree_needs_one_layer () =
  let g = Topo_tree.make ~k:4 ~n:2 () in
  check Alcotest.int "tree layers" 1 (expect "layers" (Dfsssp.layers_required g))

let test_budget_exhaustion () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  match Dfsssp.route ~max_layers:1 g with
  | Error (Dfsssp.Layers_exhausted _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dfsssp.error_to_string e)
  | Ok _ -> Alcotest.fail "expected exhaustion"

(* The paper's VL figures must not depend on the break engine: on the
   Fig. 9 random-topology family and the Fig. 10 real systems, the SCC
   engine reproduces the DFS oracle's layer counts exactly — same CDGs,
   same heuristic, same eviction order within each component. *)
let test_fig_layer_parity () =
  let parity name g =
    let vl engine = expect name (Dfsssp.layers_required ~engine ~max_layers:64 g) in
    check Alcotest.int (name ^ ": scc matches dfs") (vl `Dfs) (vl `Scc)
  in
  for t = 0 to 2 do
    let rng = Rng.create ((7 * 10007) + (t * 31)) in
    let g = Topo_random.make ~switches:32 ~switch_radix:16 ~terminals:64 ~inter_links:80 ~rng in
    parity (Printf.sprintf "fig9 random %d" t) g
  done;
  List.iter
    (fun (s : Clusters.system) -> parity ("fig10 " ^ s.Clusters.name) s.Clusters.graph)
    (Clusters.all ~scale:16 ())

let test_variants_and_heuristics () =
  let g = fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:2) in
  List.iter
    (fun (label, variant) ->
      List.iter
        (fun h ->
          let ft = expect label (Dfsssp.route ~variant ~heuristic:h g) in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s deadlock free" label (Deadlock.Heuristic.to_string h))
            true (certified ft))
        Deadlock.Heuristic.all)
    [ ("offline", Dfsssp.Offline); ("online", Dfsssp.Online) ]

let test_balance_spreads () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  let plain = expect "plain" (Dfsssp.route ~max_layers:8 g) in
  let balanced = expect "balanced" (Dfsssp.route ~max_layers:8 ~balance:true g) in
  Alcotest.(check bool) "balanced still deadlock free" true (certified balanced);
  Alcotest.(check bool) "balance uses more layers" true
    (Routing.Ftable.num_layers balanced >= Routing.Ftable.num_layers plain);
  check Alcotest.int "balance fills the budget" 8 (Routing.Ftable.num_layers balanced)

let test_weakest_not_worse_than_heaviest () =
  (* paper Section IV: weakest-edge needs the fewest layers; check the
     weaker, stable claim weakest <= heaviest on a batch of seeds *)
  let worse = ref 0 in
  for seed = 0 to 9 do
    let rng = Rng.create (1000 + seed) in
    let g = Topo_random.make ~switches:12 ~switch_radix:12 ~terminals:24 ~inter_links:20 ~rng in
    let layers h = expect "h" (Dfsssp.layers_required ~heuristic:h ~max_layers:32 g) in
    if layers Deadlock.Heuristic.Weakest > layers Deadlock.Heuristic.Heaviest then incr worse
  done;
  Alcotest.(check bool) "weakest rarely worse" true (!worse <= 2)

let dfsssp_random_qcheck =
  qtest "dfsssp: deadlock-free minimal routing on random fabrics" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:10 ~switch_radix:10 ~terminals:20 ~inter_links:16 ~rng in
      match Dfsssp.route ~max_layers:16 g with
      | Error _ -> false
      | Ok ft -> (
        match Routing.Ftable.validate ft with
        | Error _ -> false
        | Ok s -> certified ft && s.Routing.Ftable.minimal && s.Routing.Ftable.pairs = 20 * 19))

let dfsssp_torus_layers_qcheck =
  qtest ~count:8 "dfsssp: small layer count on tori" QCheck2.Gen.(int_range 3 5)
    (fun k ->
      (* measured: 3x3 -> 1 (ties avoid the wrap cycle), 4x4 -> 2, 5x5 -> 3;
         the requirement grows with the torus radius *)
      let g = fst (Topo_torus.torus ~dims:[| k; k |] ~terminals_per_switch:1) in
      match Dfsssp.layers_required ~max_layers:8 g with
      | Error _ -> false
      | Ok l -> l >= 1 && l <= k - 2 + 1)

(* ------------------------------------------------------------------ *)
(* Multipath                                                            *)
(* ------------------------------------------------------------------ *)

let test_multipath_basics () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  match Dfsssp.Multipath.route ~planes:2 ~max_layers:16 g with
  | Error e -> Alcotest.fail (Dfsssp.error_to_string e)
  | Ok mp ->
    check Alcotest.int "two planes" 2 (Array.length (Dfsssp.Multipath.planes mp));
    Alcotest.(check bool) "jointly deadlock free" true (Dfsssp.Multipath.deadlock_free mp);
    (* every plane individually routes everything, minimally *)
    Array.iter
      (fun ft ->
        match Routing.Ftable.validate ft with
        | Ok s -> Alcotest.(check bool) "plane minimal" true s.Routing.Ftable.minimal
        | Error e -> Alcotest.fail e)
      (Dfsssp.Multipath.planes mp);
    (* planes differ on at least one route (diversity) *)
    let ts = Graph.terminals g in
    let differs = ref false in
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if src <> dst then begin
              let p0 = Dfsssp.Multipath.path mp ~plane:0 ~src ~dst in
              let p1 = Dfsssp.Multipath.path mp ~plane:1 ~src ~dst in
              if p0 <> p1 then differs := true
            end)
          ts)
      ts;
    Alcotest.(check bool) "planes diverse" true !differs;
    (* spread_paths shape *)
    let flows = [| (ts.(0), ts.(1)); (ts.(1), ts.(2)); (ts.(0), ts.(0)) |] in
    let paths = Dfsssp.Multipath.spread_paths mp ~flows in
    check Alcotest.int "one path per flow" 3 (Array.length paths);
    check Alcotest.int "self flow empty" 0 (Array.length paths.(2));
    Alcotest.check_raises "plane range" (Invalid_argument "Multipath.path: plane out of range")
      (fun () -> ignore (Dfsssp.Multipath.path mp ~plane:9 ~src:ts.(0) ~dst:ts.(1)))

let test_multipath_joint_layers () =
  (* the joint lane bill can exceed a single plane's *)
  let g = fst (Topo_torus.torus ~dims:[| 5; 5 |] ~terminals_per_switch:1) in
  let single = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route ~max_layers:16 g)) in
  match Dfsssp.Multipath.route ~planes:2 ~max_layers:16 g with
  | Error e -> Alcotest.fail (Dfsssp.error_to_string e)
  | Ok mp ->
    Alcotest.(check bool) "joint >= single" true
      (Dfsssp.Multipath.num_layers mp >= Routing.Ftable.num_layers single);
    Alcotest.(check bool) "invalid planes" true
      (try
         ignore (Dfsssp.Multipath.route ~planes:0 g);
         false
       with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Verify: the certifier against the Kahn oracle                        *)
(* ------------------------------------------------------------------ *)

let test_verify_parallel_agrees () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  let df = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g)) in
  Alcotest.(check bool) "parallel oracle true" true (Oracle.Acyclic.table_acyclic ~domains:4 df);
  Alcotest.(check bool) "certifier agrees (true)" true (certified df);
  let sssp = Result.get_ok (Routing.Sssp.route g) in
  Alcotest.(check bool) "parallel oracle false" false (Oracle.Acyclic.table_acyclic ~domains:4 sssp);
  Alcotest.(check bool) "certifier agrees (false)" false (certified sssp)

let test_verify_flags_cyclic () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let sssp = Result.get_ok (Routing.Sssp.route g) in
  Alcotest.(check bool) "sssp on ring is not deadlock free" false (certified sssp);
  Alcotest.(check bool) "oracle agrees" false (Oracle.Acyclic.table_acyclic sssp);
  Alcotest.(check bool) "tables themselves valid" true (Result.is_ok (Routing.Ftable.validate sssp))

let test_verify_error_on_incomplete () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let ft = Routing.Ftable.create g ~algorithm:"empty" in
  Alcotest.(check bool) "incomplete table rejected" true (Result.is_error (Routing.Ftable.validate ft));
  Alcotest.(check bool) "nothing to certify" true (Result.is_error (Analysis.Analyzer.certify ft));
  Alcotest.(check bool) "oracle refuses" false (Oracle.Acyclic.table_acyclic ft)

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let test_registry_contents () =
  let names = List.map (fun a -> a.Dfsssp.Registry.name) (Dfsssp.Registry.all ()) in
  List.iter
    (fun expected -> Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "minhop"; "updown"; "ftree"; "dor"; "lash"; "sssp"; "dfsssp"; "dfsssp-online"; "dfminhop"; "dfdor" ];
  check Alcotest.int "count" 10 (List.length names)

let test_registry_find () =
  (match Dfsssp.Registry.find "DFSSSP" with
  | Some a -> check Alcotest.string "case-insensitive" "dfsssp" a.Dfsssp.Registry.name
  | None -> Alcotest.fail "dfsssp not found");
  Alcotest.(check bool) "unknown" true (Dfsssp.Registry.find "nonesuch" = None)

let test_registry_dor_needs_coords () =
  let g, coords = Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:1 in
  let without = Option.get (Dfsssp.Registry.find "dor") in
  Alcotest.(check bool) "refused without coords" true (Result.is_error (without.Dfsssp.Registry.run g));
  let with_coords = Option.get (Dfsssp.Registry.find ~coords "dor") in
  Alcotest.(check bool) "works with coords" true (Result.is_ok (with_coords.Dfsssp.Registry.run g))

let test_hardened_routings () =
  (* assign_layers makes any base routing deadlock-free: DOR on a torus
     (cyclic without it) and MinHop on a dragonfly both certify *)
  let g, coords = Topo_torus.torus ~dims:[| 5; 5 |] ~terminals_per_switch:1 in
  let dfdor = Option.get (Dfsssp.Registry.find ~coords "dfdor") in
  (match dfdor.Dfsssp.Registry.run g with
  | Error e -> Alcotest.fail e
  | Ok ft ->
    Alcotest.(check bool) "dfdor deadlock free" true (certified ft);
    Alcotest.(check bool) "dfdor layered" true (Routing.Ftable.num_layers ft >= 2);
    (* plain dor on the same torus is cyclic *)
    let dor = Option.get (Dfsssp.Registry.find ~coords "dor") in
    (match dor.Dfsssp.Registry.run g with
    | Ok plain -> Alcotest.(check bool) "plain dor cyclic" false (certified plain)
    | Error e -> Alcotest.fail e));
  let df = Topo_dragonfly.make ~a:4 ~p:2 ~h:2 () in
  let dfminhop = Option.get (Dfsssp.Registry.find "dfminhop") in
  (match dfminhop.Dfsssp.Registry.run df with
  | Error e -> Alcotest.fail e
  | Ok ft -> Alcotest.(check bool) "dfminhop deadlock free" true (certified ft))

let test_route_min_layers () =
  let g = fst (Topo_torus.torus ~dims:[| 5; 5 |] ~terminals_per_switch:1) in
  match Dfsssp.route_min_layers g with
  | Error e -> Alcotest.fail (Dfsssp.error_to_string e)
  | Ok (ft, winner) ->
    Alcotest.(check bool) "deadlock free" true (certified ft);
    (* the winner is at least as good as every single heuristic *)
    List.iter
      (fun h ->
        match Dfsssp.layers_required ~heuristic:h g with
        | Ok l ->
          Alcotest.(check bool)
            (Printf.sprintf "beats or ties %s" (Deadlock.Heuristic.to_string h))
            true
            (Routing.Ftable.num_layers ft <= l)
        | Error _ -> ())
      Deadlock.Heuristic.all;
    ignore winner

let test_registry_deadlock_free_flags () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  List.iter
    (fun (alg : Dfsssp.Registry.algorithm) ->
      match alg.Dfsssp.Registry.run g with
      | Error _ -> ()
      | Ok ft ->
        if alg.Dfsssp.Registry.deadlock_free_by_design then
          Alcotest.(check bool)
            (alg.Dfsssp.Registry.name ^ " honours its flag")
            true (certified ft))
    (Dfsssp.Registry.all ())

let () =
  Alcotest.run "dfsssp"
    [
      ( "route",
        [
          Alcotest.test_case "deadlock free everywhere" `Slow test_deadlock_free_everywhere;
          Alcotest.test_case "paths equal sssp" `Quick test_paths_equal_sssp;
          Alcotest.test_case "ring needs 2 layers" `Quick test_ring_needs_two_layers;
          Alcotest.test_case "tree needs 1 layer" `Quick test_tree_needs_one_layer;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "fig 9/10 layer parity across engines" `Quick test_fig_layer_parity;
          Alcotest.test_case "variants and heuristics" `Quick test_variants_and_heuristics;
          Alcotest.test_case "balance spreads" `Quick test_balance_spreads;
          Alcotest.test_case "weakest vs heaviest" `Slow test_weakest_not_worse_than_heaviest;
          dfsssp_random_qcheck;
          dfsssp_torus_layers_qcheck;
        ] );
      ( "multipath",
        [
          Alcotest.test_case "basics" `Quick test_multipath_basics;
          Alcotest.test_case "joint layers" `Quick test_multipath_joint_layers;
        ] );
      ( "verify",
        [
          Alcotest.test_case "flags cyclic routing" `Quick test_verify_flags_cyclic;
          Alcotest.test_case "parallel verification" `Quick test_verify_parallel_agrees;
          Alcotest.test_case "rejects incomplete" `Quick test_verify_error_on_incomplete;
        ] );
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry_contents;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "dor needs coords" `Quick test_registry_dor_needs_coords;
          Alcotest.test_case "hardened routings" `Quick test_hardened_routings;
          Alcotest.test_case "route_min_layers" `Quick test_route_min_layers;
          Alcotest.test_case "deadlock-free flags honoured" `Slow test_registry_deadlock_free_flags;
        ] );
    ]

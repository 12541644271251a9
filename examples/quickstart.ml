(* Quickstart: build a small irregular fabric, route it deadlock-free with
   DFSSSP, inspect the result, and certify the deadlock-freedom guarantee.
   Exits non-zero unless the DFSSSP tables are certified and plain SSSP's
   are refused.

   Run with:  dune exec examples/quickstart.exe *)

open Netgraph

let () =
  (* 1. Describe the fabric. A 4x4 torus of 36-port switches with two
     compute nodes each — a topology plain SSSP cannot route safely. *)
  let fabric, _coords = Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2 in
  Format.printf "fabric: %a@." Graph.pp_stats fabric;

  (* 2. Route it. [Dfsssp.route] computes globally balanced minimal routes
     and partitions them over virtual lanes so no buffer cycle exists,
     within the 8 lanes of [Dfsssp.Config.default]. *)
  match Dfsssp.route fabric with
  | Error e ->
    prerr_endline (Dfsssp.error_to_string e);
    exit 1
  | Ok tables ->
    Format.printf "routing computed by %s, using %d virtual lane(s)@."
      (Routing.Ftable.algorithm tables) (Routing.Ftable.num_layers tables);

    (* 3. Look one route up: first hop and assigned lane for a pair. *)
    let terminals = Graph.terminals fabric in
    let src = terminals.(0) and dst = terminals.(11) in
    (match Routing.Ftable.path tables ~src ~dst with
    | Some path ->
      Format.printf "route %s -> %s: %d hops on virtual lane %d@."
        (Graph.node fabric src).Node.name (Graph.node fabric dst).Node.name (Path.length path)
        (Routing.Ftable.layer tables ~src ~dst)
    | None -> assert false);

    (* 4. Check end to end: route completeness and minimality, then the
       deadlock-freedom certificate — a topological order of every lane's
       channel dependency graph (Dally & Seitz's condition), validated by
       the trusted checker. *)
    (match Routing.Ftable.validate tables with
    | Ok stats -> Format.printf "routes: %a@." Routing.Ftable.pp_stats stats
    | Error e ->
      prerr_endline e;
      exit 1);
    (match Analysis.Analyzer.certify tables with
    | Ok cert -> Format.printf "certified deadlock-free on %d lane(s)@." (Analysis.Cert.num_layers cert)
    | Error e ->
      prerr_endline ("not certified: " ^ e);
      exit 1);

    (* 5. Contrast with plain SSSP: same routes, but the single-lane
       dependency graph is cyclic — a deadlock waiting to happen. *)
    match Routing.Sssp.route fabric with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok sssp -> (
      match Analysis.Analyzer.certify sssp with
      | Error e -> Format.printf "plain SSSP on the same fabric is refused: %s@." e
      | Ok _ ->
        prerr_endline "plain SSSP was certified on a fabric it cannot route safely";
        exit 1)

(* Command-line routing front end — the moral equivalent of running a
   routing engine inside OpenSM, but against generated or file-described
   fabrics: pick a topology and an algorithm, compute the forwarding
   tables and virtual-lane assignment, certify deadlock-freedom, and
   optionally measure effective bisection bandwidth or export artefacts. *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let run verbose topology algorithm max_vls heuristic_name online balance ebb_patterns seed show_routes
    dot_out save_out opensm_out routing_out =
  setup_logs verbose;
  match Harness.Topospec.parse topology with
  | Error msg ->
    Printf.eprintf "topology: %s\n" msg;
    2
  | Ok spec -> (
    let g = spec.Harness.Topospec.graph in
    Format.printf "fabric: %s@." spec.Harness.Topospec.description;
    Format.printf "        %a@." Netgraph.Graph.pp_stats g;
    let heuristic = Deadlock.Heuristic.of_string heuristic_name in
    match heuristic with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      2
    | Ok heuristic -> (
      let config = { Dfsssp.Config.default with max_layers = max_vls } in
      let result =
        match String.lowercase_ascii algorithm with
        | "dfsssp" ->
          let variant = if online then Dfsssp.Online else Dfsssp.Offline in
          Result.map_error Dfsssp.error_to_string
            (Dfsssp.route ~config ~variant ~heuristic ~balance g)
        | name -> (
          match Dfsssp.Registry.find ?coords:spec.Harness.Topospec.coords ~config name with
          | None ->
            Error
              (Printf.sprintf "unknown algorithm %S (known: %s)" name
                 (String.concat ", " Dfsssp.Registry.names))
          | Some alg -> alg.Dfsssp.Registry.run g)
      in
      match result with
      | Error msg ->
        Printf.eprintf "routing failed: %s\n" msg;
        1
      | Ok ft ->
        (match Routing.Ftable.validate ft with
        | Ok stats ->
          Format.printf "result: %a layers=%d deadlock_free=%b@." Routing.Ftable.pp_stats stats
            (Routing.Ftable.num_layers ft)
            (Result.is_ok (Analysis.Analyzer.certify ft))
        | Error msg -> Format.printf "result: INVALID ROUTING (%s)@." msg);
        if ebb_patterns > 0 then begin
          let rng = Netgraph.Rng.create seed in
          let ebb =
            Simulator.Congestion.effective_bisection_bandwidth ~patterns:ebb_patterns ~rng ft
          in
          Format.printf "effective bisection bandwidth: %a (worst pair %.4f)@." Simulator.Metrics.pp_summary
            ebb.Simulator.Congestion.samples ebb.Simulator.Congestion.worst_pair
        end;
        if show_routes then
          Routing.Ftable.iter_pairs ft (fun ~src ~dst path ->
              Format.printf "  %s -> %s vl%d hops=%d@."
                (Netgraph.Graph.node g src).Netgraph.Node.name
                (Netgraph.Graph.node g dst).Netgraph.Node.name
                (Routing.Ftable.layer ft ~src ~dst)
                (Netgraph.Path.length path));
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Netgraph.Serial.to_dot g));
            Format.printf "wrote %s@." path)
          dot_out;
        Option.iter
          (fun path ->
            Netgraph.Serial.save path g;
            Format.printf "wrote %s@." path)
          save_out;
        Option.iter
          (fun dir ->
            if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
            List.iter (Format.printf "wrote %s@.") (Routing.Opensm.save_all ~dir ft))
          opensm_out;
        Option.iter
          (fun path ->
            Routing.Ftable_io.save path ft;
            Format.printf "wrote %s@." path)
          routing_out;
        0))

let topology =
  let doc =
    "Topology specification. Forms: " ^ String.concat "; " Harness.Topospec.grammar_lines ^ "."
  in
  Arg.(value & opt string "torus:4x4:2" & info [ "t"; "topology" ] ~docv:"SPEC" ~doc)

let algorithm =
  let doc = "Routing algorithm: " ^ String.concat ", " Dfsssp.Registry.names ^ "." in
  Arg.(value & opt string "dfsssp" & info [ "a"; "algorithm" ] ~docv:"NAME" ~doc)

let max_vls =
  Arg.(value & opt int 8 & info [ "max-vls" ] ~docv:"N" ~doc:"Virtual lane budget (InfiniBand hardware: 8).")

let heuristic =
  Arg.(
    value & opt string "weakest"
    & info [ "heuristic" ] ~docv:"H" ~doc:"Cycle-breaking heuristic: weakest, heaviest, or first-edge.")

let online =
  Arg.(value & flag & info [ "online" ] ~doc:"Use the online (path-at-a-time) layer assignment for dfsssp.")

let balance =
  Arg.(value & flag & info [ "balance" ] ~doc:"Spread routes over unused virtual lanes after assignment.")

let ebb =
  Arg.(
    value & opt int 0
    & info [ "ebb" ] ~docv:"PATTERNS" ~doc:"Also estimate effective bisection bandwidth over $(docv) random bisections.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the bandwidth estimate.")

let routes = Arg.(value & flag & info [ "routes" ] ~doc:"Print every route (large on big fabrics).")

let dot_out =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Export the fabric as Graphviz.")

let save_out =
  Arg.(
    value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"Save the fabric in the text format.")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log the layer assignment's progress.")

let opensm_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "opensm" ] ~docv:"DIR" ~doc:"Write OpenSM-style LFT/GUID/SL2VL dump files into $(docv).")

let routing_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-routing" ]
        ~docv:"FILE"
        ~doc:"Save the complete routing (fabric + tables + lanes) in the Ftable_io text format.")

let cmd =
  let doc = "deadlock-free oblivious routing for arbitrary topologies (DFSSSP)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Computes destination-based forwarding tables plus a virtual-lane assignment whose per-lane \
         channel dependency graphs are acyclic (Domke, Hoefler, Nagel; IPDPS 2011), and certifies the \
         result with the trusted deadlock-freedom checker.";
      `S Manpage.s_examples;
      `Pre "  dfsssp_route -t torus:8x8:2 -a dfsssp --ebb 100\n  dfsssp_route -t cluster:deimos:4 -a lash\n  dfsssp_route -t file:fabric.txt --routes";
    ]
  in
  Cmd.v
    (Cmd.info "dfsssp_route" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ verbose $ topology $ algorithm $ max_vls $ heuristic $ online $ balance $ ebb $ seed
      $ routes $ dot_out $ save_out $ opensm_out $ routing_out)

let () = exit (Cmd.eval' cmd)

(* Simulation front end: route a fabric, put a workload on it, and run
   either the static congestion model, the cycle-based packet simulator,
   or the discrete-event simulator — the full measurement pipeline from
   the command line. *)

open Cmdliner

let pattern_flows name rng ranks =
  match String.lowercase_ascii name with
  | "all-to-all" -> Ok (Simulator.Patterns.all_to_all ranks)
  | "bisection" -> Ok (Simulator.Patterns.random_bisection rng ranks)
  | "ring-shift" -> Ok (Simulator.Patterns.ring_shift ~by:(Array.length ranks / 2) ranks)
  | other -> (
    match List.assoc_opt other Simulator.Patterns.adversarial with
    | Some p -> p ranks
    | None -> (
      match List.assoc_opt (String.uppercase_ascii other) Simulator.Patterns.nas_kernels with
      | Some p -> p ranks
      | None ->
        Error
          (Printf.sprintf "unknown pattern %S (want all-to-all|bisection|ring-shift|%s|bt|cg|ft|lu|mg|sp)"
             other
             (String.concat "|" (List.map fst Simulator.Patterns.adversarial)))))

let run topology algorithm pattern_name engine bytes seed =
  let rng = Netgraph.Rng.create seed in
  match Harness.Topospec.parse topology with
  | Error msg ->
    Printf.eprintf "topology: %s\n" msg;
    2
  | Ok spec -> (
    let g = spec.Harness.Topospec.graph in
    Format.printf "fabric:  %s@." spec.Harness.Topospec.description;
    match Harness.Runs.run_named ?coords:spec.Harness.Topospec.coords algorithm g with
    | Error msg ->
      Printf.eprintf "routing: %s\n" msg;
      1
    | Ok ft -> (
      Format.printf "routing: %s, %d virtual lane(s), deadlock-free: %b@." algorithm
        (Routing.Ftable.num_layers ft) (Result.is_ok (Analysis.Analyzer.certify ft));
      match pattern_flows pattern_name rng (Netgraph.Graph.terminals g) with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        2
      | Ok flows -> (
        Format.printf "pattern: %s, %d flows@." pattern_name (Array.length flows);
        match String.lowercase_ascii engine with
        | "static" ->
          let r = Simulator.Congestion.evaluate ft ~flows in
          Format.printf "static congestion: mean share %.4f, worst flow %.4f, hottest channel %d flows@."
            r.Simulator.Congestion.mean_share r.Simulator.Congestion.min_share
            r.Simulator.Congestion.max_congestion;
          List.iter
            (fun (h : Simulator.Congestion.hotspot) ->
              Format.printf "  hot: %-16s -> %-16s %4d flows@." h.Simulator.Congestion.src_name
                h.Simulator.Congestion.dst_name h.Simulator.Congestion.load)
            (Simulator.Congestion.hotspots ~top:5 ft ~flows);
          0
        | "flit" ->
          let packets = max 1 (bytes / 4096) in
          let fl = Array.map (fun (a, b) -> (a, b, packets)) flows in
          Format.printf "packet simulator (%d packets per flow): %a@." packets Simulator.Flitsim.pp_outcome
            (Simulator.Flitsim.run ft ~flows:fl);
          0
        | "event" -> (
          let fl = Array.map (fun (a, b) -> (a, b, bytes)) flows in
          match Simulator.Netsim.run ft ~flows:fl with
          | Simulator.Netsim.Completed { makespan; flows = st; packets; mean_packet_latency } ->
            let bws = Array.map Simulator.Netsim.bandwidth_of st in
            let mean_bw = Array.fold_left ( +. ) 0.0 bws /. float_of_int (max 1 (Array.length bws)) in
            Format.printf
              "event simulator: %d packets in %.4f ms, mean pair bandwidth %.1f MB/s, mean latency %.1f us@."
              packets (1e3 *. makespan) (mean_bw /. 1e6) (1e6 *. mean_packet_latency);
            0
          | o ->
            Format.printf "event simulator: %a@." Simulator.Netsim.pp_outcome o;
            1)
        | other ->
          Printf.eprintf "unknown engine %S (want static|flit|event)\n" other;
          2)))

let topology = Arg.(value & opt string "cluster:deimos:8" & info [ "t"; "topology" ] ~docv:"SPEC")

let algorithm = Arg.(value & opt string "dfsssp" & info [ "a"; "algorithm" ] ~docv:"NAME")

let pattern =
  Arg.(
    value & opt string "bisection"
    & info [ "p"; "pattern" ] ~docv:"PATTERN"
        ~doc:"Workload: all-to-all, bisection, ring-shift, tornado, bit-complement, bit-reverse, transpose, or a NAS kernel (bt/cg/ft/lu/mg/sp).")

let engine =
  Arg.(
    value & opt string "static"
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"static (congestion counting), flit (cycle-based), or event (discrete-event).")

let bytes =
  Arg.(value & opt int 262144 & info [ "bytes" ] ~docv:"N" ~doc:"Bytes per flow for the dynamic engines.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")

let cmd =
  let doc = "simulate a workload over a routed fabric" in
  Cmd.v
    (Cmd.info "simulate" ~version:"1.0.0" ~doc)
    Term.(const run $ topology $ algorithm $ pattern $ engine $ bytes $ seed)

let () = exit (Cmd.eval' cmd)

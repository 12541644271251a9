(* Route a user-supplied fabric: read the plain-text topology format
   (switch / terminal / link lines — the shape OpenSM would discover),
   route it with a chosen algorithm, print per-route diagnostics, and
   export Graphviz for visual inspection. Exits non-zero when the tables
   are incomplete, or when an algorithm that promises deadlock freedom
   produced tables the certifier refuses.

   Run with:
     dune exec examples/custom_topology.exe               (built-in demo fabric)
     dune exec examples/custom_topology.exe -- fabric.txt dfsssp out.dot *)

open Netgraph

(* An irregular demo fabric: a fat-tree island bridged to a ring — the
   "grown over time" machine of the paper's introduction. *)
let demo = "\
# two-level island\n\
switch leaf0\n\
switch leaf1\n\
switch spine0\n\
switch spine1\n\
link leaf0 spine0\n\
link leaf0 spine1\n\
link leaf1 spine0\n\
link leaf1 spine1\n\
# legacy ring segment bolted on\n\
switch ring0\n\
switch ring1\n\
switch ring2\n\
link ring0 ring1\n\
link ring1 ring2\n\
link ring2 ring0\n\
link leaf1 ring0 2\n\
# nodes\n\
terminal n0 leaf0\n\
terminal n1 leaf0\n\
terminal n2 leaf1\n\
terminal n3 ring0\n\
terminal n4 ring1\n\
terminal n5 ring2\n"

let () =
  let text =
    if Array.length Sys.argv > 1 then In_channel.with_open_text Sys.argv.(1) In_channel.input_all
    else demo
  in
  let algorithm = if Array.length Sys.argv > 2 then Sys.argv.(2) else "dfsssp" in
  let dot_out = if Array.length Sys.argv > 3 then Some Sys.argv.(3) else None in
  match Serial.of_string text with
  | Error msg ->
    Printf.eprintf "topology parse error: %s\n" msg;
    exit 2
  | Ok fabric -> (
    (match Graph.validate fabric with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "invalid fabric: %s\n" msg;
      exit 2);
    Format.printf "fabric: %a@." Graph.pp_stats fabric;
    match Dfsssp.Registry.find algorithm with
    | None ->
      Printf.eprintf "unknown algorithm %S; known: %s\n" algorithm
        (String.concat ", " Dfsssp.Registry.names);
      exit 2
    | Some alg -> (
      match alg.Dfsssp.Registry.run fabric with
      | Error msg ->
        Printf.eprintf "%s refused this fabric: %s\n" alg.Dfsssp.Registry.name msg;
        exit 1
      | Ok ft ->
        (match Routing.Ftable.validate ft with
        | Ok stats ->
          Format.printf "%s: %a layers=%d@." alg.Dfsssp.Registry.name Routing.Ftable.pp_stats stats
            (Routing.Ftable.num_layers ft)
        | Error msg ->
          Printf.eprintf "validation failed: %s\n" msg;
          exit 1);
        (match Analysis.Analyzer.certify ft with
        | Ok _ -> Format.printf "certified deadlock-free@."
        | Error msg ->
          Format.printf "not certified: %s@." msg;
          if alg.Dfsssp.Registry.deadlock_free_by_design then exit 1);
        (* per-pair route listing for small fabrics *)
        let terminals = Graph.terminals fabric in
        if Array.length terminals <= 8 then begin
          Format.printf "@.routes:@.";
          Routing.Ftable.iter_pairs ft (fun ~src ~dst path ->
              let names = Path.node_sequence fabric path in
              Format.printf "  %-4s -> %-4s  vl%d  %s@." (Graph.node fabric src).Node.name
                (Graph.node fabric dst).Node.name
                (Routing.Ftable.layer ft ~src ~dst)
                (String.concat " > "
                   (Array.to_list (Array.map (fun v -> (Graph.node fabric v).Node.name) names))))
        end;
        (match dot_out with
        | Some path ->
          Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Serial.to_dot fabric));
          Format.printf "@.wrote %s@." path
        | None -> ())))

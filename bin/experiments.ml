(* Run any single experiment from the paper's evaluation by its figure or
   table number, at a chosen scale — the fine-grained companion to
   bench/main.exe, which runs them all. *)

open Cmdliner

let known =
  [
    ("table1", "Table I: topology generator parameters");
    ("fig4", "Fig. 4: eBB on real systems");
    ("fig5", "Fig. 5: eBB on XGFT sweep");
    ("fig6", "Fig. 6: eBB on Kautz sweep");
    ("fig7", "Fig. 7: routing runtime on k-ary n-trees");
    ("fig8", "Fig. 8: routing runtime on real systems");
    ("fig9", "Fig. 9: virtual lanes on random topologies");
    ("fig10", "Fig. 10: virtual lanes on real systems");
    ("heuristics", "Section IV: cycle-breaking heuristic comparison");
    ("fig12", "Fig. 12: Netgauge-style eBB on Deimos");
    ("fig13", "Fig. 13: all-to-all time vs message size");
    ("fig14", "Fig. 14: NAS BT scaling");
    ("fig15", "Fig. 15: NAS SP scaling");
    ("fig16", "Fig. 16: NAS FT scaling");
    ("table2", "Table II: NAS improvements");
  ]

let run name scale patterns max_endpoints trials domains csv_dir =
  (* Figs. 7-8 with --domains time the batched-snapshot pipeline, the
     only one that spreads a plane over domains. *)
  let config =
    match domains with
    | None -> Dfsssp.Config.default
    | Some domains ->
      { Dfsssp.Config.default with domains; batch = Routing.Sssp.recommended_batch }
  in
  match Dfsssp.Config.validate config with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok config ->
  let domains = config.Dfsssp.Config.domains in
  let table =
    match String.lowercase_ascii name with
    | "table1" -> Some (Harness.Tableone.table ())
    | "fig4" -> Some (Harness.Fig_bandwidth.fig4 ~scale ~patterns ~domains ())
    | "fig5" -> Some (Harness.Fig_bandwidth.fig5 ~max_endpoints ~patterns ~domains ())
    | "fig6" -> Some (Harness.Fig_bandwidth.fig6 ~max_endpoints ~patterns ~domains ())
    | "fig7" -> Some (Harness.Fig_runtime.fig7 ~max_endpoints ~config ())
    | "fig8" -> Some (Harness.Fig_runtime.fig8 ~scale ~config ())
    | "fig9" -> Some (Harness.Fig_vls.fig9 ~trials ())
    | "fig9-full" ->
      Some
        (Harness.Fig_vls.fig9 ~switches:128 ~switch_radix:32 ~terminals_per_switch:16 ~trials ())
    | "fig10" -> Some (Harness.Fig_vls.fig10 ~scale ())
    | "heuristics" -> Some (Harness.Fig_vls.heuristics ~trials ())
    | "fig12" -> Some (Harness.Fig_deimos.fig12 ~scale ~patterns ())
    | "fig13" -> Some (Harness.Fig_deimos.fig13 ~scale ())
    | "fig14" -> Some (Harness.Fig_deimos.fig14 ~scale ())
    | "fig15" -> Some (Harness.Fig_deimos.fig15 ~scale ())
    | "fig16" -> Some (Harness.Fig_deimos.fig16 ~scale ())
    | "table2" -> Some (Harness.Fig_deimos.table2 ~scale ())
    | _ -> None
  in
  match table with
  | None ->
    Printf.eprintf "unknown experiment %S; known:\n" name;
    List.iter (fun (id, doc) -> Printf.eprintf "  %-10s %s\n" id doc) known;
    2
  | Some t ->
    Harness.Report.print t;
    (match csv_dir with
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let path = Harness.Report.save_csv ~dir t in
      Printf.printf "wrote %s\n" path
    | None -> ());
    0

let experiment_name =
  let doc = "Experiment id: " ^ String.concat ", " (List.map fst known) ^ " (or fig9-full for the paper-scale Fig. 9)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

let scale =
  Arg.(
    value & opt int 4
    & info [ "scale" ] ~docv:"N" ~doc:"Divide real-system sizes by $(docv); 1 = full published size.")

let patterns =
  Arg.(value & opt int 50 & info [ "patterns" ] ~docv:"N" ~doc:"Random bisection patterns per bandwidth cell.")

let max_endpoints =
  Arg.(value & opt int 1024 & info [ "max-endpoints" ] ~docv:"N" ~doc:"Largest sweep size for Figs. 5-7.")

let trials =
  Arg.(value & opt int 10 & info [ "trials" ] ~docv:"N" ~doc:"Random topology seeds for Fig. 9 / heuristics.")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Use $(docv) domains: Figs. 4-6 fill their bandwidth grids with a worker pool (identical \
           numbers), Figs. 7-8 time the batched-snapshot routing pipeline; omitted, everything runs \
           sequentially.")

let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc:"Also write the table as CSV into $(docv).")

let cmd =
  let doc = "regenerate one table or figure of the DFSSSP paper" in
  Cmd.v
    (Cmd.info "experiments" ~version:"1.0.0" ~doc)
    Term.(const run $ experiment_name $ scale $ patterns $ max_endpoints $ trials $ domains $ csv)

let () = exit (Cmd.eval' cmd)

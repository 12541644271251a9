let algorithms = [ "minhop"; "updown"; "lash"; "sssp"; "dfsssp"; "dfsssp-online" ]

let note = "wall-clock; includes virtual-layer assignment where the algorithm has one"

let pipeline_note (c : Dfsssp.Config.t) =
  if c.batch = 1 && c.domains = 1 then []
  else [ Printf.sprintf "batched-snapshot pipeline: %d domain(s), batch %d" c.domains c.batch ]

let cells ~config g = List.map (fun alg -> Runs.runtime_cell ~config alg g) algorithms

let fig7 ?(max_endpoints = 1024) ?(config = Dfsssp.Config.default) () =
  let rows =
    List.map
      (fun (r : Tableone.row) ->
        let g = Tableone.tree_graph r in
        Report.Int r.Tableone.endpoints :: cells ~config g)
      (Tableone.rows_up_to max_endpoints)
  in
  {
    Report.title = "Fig. 7: routing runtime, k-ary n-tree";
    columns = "#endpoints" :: algorithms;
    rows;
    notes = note :: pipeline_note config;
  }

let fig8 ?(scale = 4) ?(config = Dfsssp.Config.default) () =
  let rows =
    List.map
      (fun (s : Clusters.system) ->
        Report.Str (Printf.sprintf "%s(%d)" s.name (Graph.num_terminals s.graph))
        :: cells ~config s.graph)
      (Clusters.all ~scale ())
  in
  {
    Report.title = Printf.sprintf "Fig. 8: routing runtime, real systems (scale 1/%d)" scale;
    columns = "fabric" :: algorithms;
    rows;
    notes = note :: pipeline_note config;
  }

(* Virtual-layer requirements are measured with a deliberately high layer
   budget so the experiments report the true demand rather than a
   failure. *)
let config = { Dfsssp.Config.default with max_layers = 64 }

let vl_of name g =
  match Runs.run_named ~config name g with
  | Error _ -> None
  | Ok ft -> Some (Ftable.num_layers ft)

let min_avg_max samples =
  match samples with
  | [] -> [ Report.Missing; Report.Missing; Report.Missing ]
  | _ ->
    let n = float_of_int (List.length samples) in
    [
      Report.Int (List.fold_left min max_int samples);
      Report.Flt (float_of_int (List.fold_left ( + ) 0 samples) /. n);
      Report.Int (List.fold_left max 0 samples);
    ]

let fig9 ?(switches = 32) ?(switch_radix = 16) ?(terminals_per_switch = 8) ?links ?(trials = 10) ?(seed = 7) () =
  let links =
    match links with
    | Some l -> l
    | None ->
      (* sweep from just-connected to port-budget-bound *)
      let lo = switches + (switches / 4) in
      let hi = switches * (switch_radix - terminals_per_switch) / 2 in
      let step = max 1 ((hi - lo) / 6) in
      let rec up x = if x > hi then [] else x :: up (x + step) in
      up lo
  in
  let terminals = switches * terminals_per_switch in
  let rows =
    List.map
      (fun link_count ->
        let samples name =
          let out = ref [] in
          for t = 0 to trials - 1 do
            let rng = Rng.create ((seed * 10007) + (t * 31) + link_count) in
            let g =
              Topo_random.make ~switches ~switch_radix ~terminals ~inter_links:link_count ~rng
            in
            match vl_of name g with
            | Some v -> out := v :: !out
            | None -> ()
          done;
          !out
        in
        (Report.Int link_count :: min_avg_max (samples "lash")) @ min_avg_max (samples "dfsssp"))
      links
  in
  {
    Report.title =
      Printf.sprintf "Fig. 9: virtual layers on random topologies (%d switches x %d ports, %d terminals, %d seeds)"
        switches switch_radix terminals trials;
    columns =
      [ "#links"; "lash min"; "lash avg"; "lash max"; "dfsssp min"; "dfsssp avg"; "dfsssp max" ];
    rows;
    notes = [ "identical random fabrics are fed to both algorithms; layer budget 64" ];
  }

let fig10 ?(scale = 4) () =
  let algorithms = [ "updown"; "ftree"; "lash"; "dfsssp"; "dfsssp-online" ] in
  let rows =
    List.map
      (fun (s : Clusters.system) ->
        Report.Str (Printf.sprintf "%s(%d)" s.name (Graph.num_terminals s.graph))
        :: List.map
             (fun name ->
               match vl_of name s.graph with
               | Some v -> Report.Int v
               | None -> Report.Missing)
             algorithms)
      (Clusters.all ~scale ())
  in
  {
    Report.title = Printf.sprintf "Fig. 10: virtual layers required, real systems (scale 1/%d)" scale;
    columns = "fabric" :: algorithms;
    rows;
    notes = [];
  }

let heuristics ?(switches = 24) ?(switch_radix = 24) ?(terminals_per_switch = 12) ?(inter_links = 48)
    ?(trials = 10) ?(seed = 11) () =
  let terminals = switches * terminals_per_switch in
  let results =
    List.map
      (fun h ->
        let samples = ref [] in
        for t = 0 to trials - 1 do
          let rng = Rng.create ((seed * 7919) + t) in
          let g = Topo_random.make ~switches ~switch_radix ~terminals ~inter_links ~rng in
          match Dfsssp.route ~config ~heuristic:h g with
          | Ok ft -> samples := Ftable.num_layers ft :: !samples
          | Error _ -> ()
        done;
        (h, !samples))
      Heuristic.all
  in
  let rows =
    List.map
      (fun (h, samples) -> Report.Str (Heuristic.to_string h) :: min_avg_max samples)
      results
  in
  {
    Report.title =
      Printf.sprintf
        "Section IV: cycle-breaking heuristics on random topologies (%d switches, %d terminals, %d links, %d seeds)"
        switches terminals inter_links trials;
    columns = [ "heuristic"; "VL min"; "VL avg"; "VL max" ];
    rows;
    notes = [ "paper: weakest 3-5, first-edge 4-8, heaviest 4-16 layers" ];
  }

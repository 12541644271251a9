let condense = Obs.Timer.create "layers_dfs.condense"
let evict = Obs.Timer.create "layers_dfs.evict"
let rebuild = Obs.Timer.create "layers_dfs.rebuild"

let assign_store store ~max_layers ~heuristic =
  if max_layers < 1 then invalid_arg "Layers_dfs.assign_store: max_layers < 1";
  let g = Route_store.graph store in
  let layer_of_path = Array.make (Route_store.capacity store) (-1) in
  Route_store.iter_pairs store (fun pr -> layer_of_path.(pr) <- 0);
  let cycles_broken = ref 0 in
  let cdgs = Array.make max_layers None in
  let cdg i =
    match cdgs.(i) with
    | Some c -> c
    | None ->
      let c = Cdg.create g in
      cdgs.(i) <- Some c;
      c
  in
  cdgs.(0) <- Some (Obs.Timer.time rebuild (fun () -> Cdg.of_store store));
  let error = ref None in
  let vl = ref 0 in
  while !error = None && !vl < max_layers && cdgs.(!vl) <> None do
    let current = cdg !vl in
    (* Layers above 0 were filled through {!Cdg.add_pair}, i.e. the
       overlay; fold them into a CSR base so the sweep runs on array
       scans (and {!Cycle}'s slot cursors stay valid: nothing below adds
       to or compacts [current] while [search] is alive). *)
    if Cdg.overlay_edges current > 0 then Obs.Timer.time rebuild (fun () -> Cdg.compact current);
    let search = Cycle.create current in
    let sweeping = ref true in
    while !sweeping && !error = None do
      match Obs.Timer.time condense (fun () -> Cycle.find_cycle search) with
      | None -> sweeping := false
      | Some cycle ->
        incr cycles_broken;
        if !vl + 1 >= max_layers then
          error :=
            Some
              (Printf.sprintf "cycle remains in layer %d and no layer is left (max %d)" !vl
                 max_layers)
        else begin
          Obs.Timer.time evict (fun () ->
              let c1, c2 = Heuristic.choose heuristic current cycle in
              (* membership is exact, so every inducing pair lives here;
                 the multiset may repeat a pair, hence the dedup *)
              let movers = List.sort_uniq compare (Cdg.edge_pairs current ~c1 ~c2) in
              let next = cdg (!vl + 1) in
              List.iter
                (fun pr ->
                  Cdg.remove_pair current store ~pair:pr;
                  Cdg.add_pair next store ~pair:pr;
                  layer_of_path.(pr) <- !vl + 1)
                movers);
          Obs.Timer.time condense (fun () -> Cycle.notify_removed search)
        end
    done;
    incr vl
  done;
  match !error with
  | Some msg -> Error msg
  | None ->
    let layers_used = 1 + Array.fold_left max 0 layer_of_path in
    Ok { Layers.layer_of_path; layers_used; cycles_broken = !cycles_broken }

let assign g ~paths ~max_layers ~heuristic =
  assign_store (Route_store.of_paths g paths) ~max_layers ~heuristic

let route ?(max_layers = 8) g =
  match Routing.Sssp.route g with
  | Error msg -> Error msg
  | Ok ft -> (
    match Routing.Ftable.to_store ft with
    | Error msg -> Error msg
    | Ok store -> (
      match assign_store store ~max_layers ~heuristic:Heuristic.Weakest with
      | Error msg -> Error msg
      | Ok o ->
        Route_store.iter_pairs store (fun pair ->
            let src, dst = Routing.Ftable.pair_of_id ft pair in
            Routing.Ftable.set_layer ft ~src ~dst o.Layers.layer_of_path.(pair));
        Routing.Ftable.set_num_layers ft o.Layers.layers_used;
        Ok ft))

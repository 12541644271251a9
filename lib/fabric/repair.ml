let log_src = Logs.Src.create "fabric.repair" ~doc:"incremental route repair"

module Log = (val Logs.src_log log_src : Logs.LOG)

let affected_destinations ft ~channels =
  let g = Ftable.graph ft in
  let n = Graph.num_nodes g in
  let hit_dsts = ref [] in
  Array.iter
    (fun dst ->
      let hit = ref false in
      let u = ref 0 in
      while (not !hit) && !u < n do
        (match Ftable.next ft ~node:!u ~dst with
        | Some c when List.mem c channels -> hit := true
        | _ -> ());
        incr u
      done;
      if !hit then hit_dsts := dst :: !hit_dsts)
    (Graph.terminals g);
  List.rev !hit_dsts

let beneficiary_destinations ~old_graph ~graph ~restored =
  let endpoints =
    List.sort_uniq compare (List.map (fun c -> (Graph.channel graph c).Channel.src) restored)
  in
  let dists = List.map (fun u -> (Graph.bfs_dist old_graph u, Graph.bfs_dist graph u)) endpoints in
  let dsts = ref [] in
  Array.iter
    (fun d -> if List.exists (fun (od, nd) -> nd.(d) < od.(d)) dists then dsts := d :: !dsts)
    (Graph.terminals graph);
  List.rev !dsts

type patched = {
  table : Ftable.t;
  layers_used : int;
}

(* Same probe as {!Deadlock.Online}: adding a path to an acyclic CDG
   closes a cycle iff some newly-created edge (a, b) gains a route from b
   back to a. Only 0->1 edge transitions need a DFS. Dependencies are read
   straight from the pair's arena slice. *)
let fresh_dependencies cdg store ~pair =
  let acc = ref [] in
  Route_store.iter_deps store ~pair (fun a b ->
      if not (Cdg.live cdg ~c1:a ~c2:b) then acc := (a, b) :: !acc);
  !acc

let creates_cycle cdg fresh stamp stamps =
  let rec probe = function
    | [] -> false
    | (a, b) :: rest ->
      incr stamp;
      let target = a in
      let rec dfs c =
        if c = target then true
        else if stamps.(c) = !stamp then false
        else begin
          stamps.(c) <- !stamp;
          Cdg.exists_successor cdg c dfs
        end
      in
      if dfs b then true else probe rest
  in
  probe fresh

let patch ?(config = Dfsssp.Config.default) ~graph ~old ~dsts ~weights () =
  let layer_budget = min config.Dfsssp.Config.layer_budget config.Dfsssp.Config.max_layers in
  if layer_budget < 1 then invalid_arg "Repair.patch: layer_budget < 1";
  let terminals = Graph.terminals graph in
  let n = Graph.num_nodes graph in
  let repaired = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace repaired d ()) dsts;
  let base_layers = max 1 (Ftable.num_layers old) in
  if base_layers > layer_budget then
    Error
      (Printf.sprintf "existing assignment uses %d layer(s), over the incremental budget of %d"
         base_layers layer_budget)
  else begin
    let ft = Ftable.create graph ~algorithm:(Ftable.algorithm old) in
    (* Kept destinations: copy the whole forwarding tree verbatim. *)
    Array.iter
      (fun dst ->
        if not (Hashtbl.mem repaired dst) then
          for u = 0 to n - 1 do
            match Ftable.next old ~node:u ~dst with
            | Some c -> Ftable.set_next ft ~node:u ~dst ~channel:c
            | None -> ()
          done)
      terminals;
    (* Repaired destinations: one SSSP step each, over the surviving
       weight state (later repairs keep avoiding earlier load). *)
    let ws = Spf.workspace ~kernel:config.Dfsssp.Config.kernel graph in
    let route_result = ref (Ok ()) in
    List.iter
      (fun dst ->
        match !route_result with
        | Error _ -> ()
        | Ok () -> route_result := Sssp.route_destination ws graph ~weights ~ft ~dst)
      dsts;
    match !route_result with
    | Error msg -> Error msg
    | Ok () ->
      (* Layer repair: kept pairs keep their layer; their dependencies
         seed one CSR CDG per existing layer ({!Cdg.of_store} with a
         layer filter). Pairs toward repaired destinations are re-placed
         online into the lowest acyclic layer, opening new layers only
         within [layer_budget]. All routes are first streamed into one
         arena so both phases read dependencies from flat slices. *)
      let store = Route_store.create graph ~capacity:(Ftable.num_pairs ft) in
      let layer_of_pair = Array.make (Ftable.num_pairs ft) (-1) in
      let err = ref None in
      Array.iter
        (fun src ->
          Array.iter
            (fun dst ->
              if src <> dst && (not (Hashtbl.mem repaired dst)) && !err = None then begin
                let pair = Ftable.pair_id ft ~src ~dst in
                if not (Ftable.path_into ft store ~pair ~src ~dst) then
                  err := Some (Printf.sprintf "kept route %d -> %d is broken" src dst)
                else
                  let vl = Ftable.layer old ~src ~dst in
                  if vl >= base_layers then
                    err := Some (Printf.sprintf "kept route %d -> %d in layer %d >= %d" src dst vl base_layers)
                  else begin
                    Ftable.set_layer ft ~src ~dst vl;
                    layer_of_pair.(pair) <- vl
                  end
              end)
            terminals)
        terminals;
      let cdgs =
        ref
          (Array.init base_layers (fun vl ->
               if !err = None then Cdg.of_store ~filter:(fun pr -> layer_of_pair.(pr) = vl) store
               else Cdg.create graph))
      in
      let stamps = Array.make (Graph.num_channels graph) 0 in
      let stamp = ref 0 in
      List.iter
        (fun dst ->
          Array.iter
            (fun src ->
              if src <> dst && !err = None then begin
                let pair = Ftable.pair_id ft ~src ~dst in
                if not (Ftable.path_into ft store ~pair ~src ~dst) then
                  err := Some (Printf.sprintf "repaired route %d -> %d is missing" src dst)
                else begin
                  let placed = ref false in
                  let vl = ref 0 in
                  while (not !placed) && !err = None do
                    if !vl >= Array.length !cdgs then begin
                      if Array.length !cdgs >= layer_budget then
                        err :=
                          Some
                            (Printf.sprintf "route %d -> %d fits no layer within the budget of %d" src
                               dst layer_budget)
                      else cdgs := Array.append !cdgs [| Cdg.create graph |]
                    end;
                    if !err = None then begin
                      let cdg = !cdgs.(!vl) in
                      let fresh = fresh_dependencies cdg store ~pair in
                      Cdg.add_pair cdg store ~pair;
                      if creates_cycle cdg fresh stamp stamps then begin
                        Cdg.remove_pair cdg store ~pair;
                        incr vl
                      end
                      else begin
                        Ftable.set_layer ft ~src ~dst !vl;
                        placed := true
                      end
                    end
                  done
                end
              end)
            terminals)
        dsts;
      (match !err with
      | Some msg -> Error msg
      | None ->
        let layers_used = Array.length !cdgs in
        Ftable.set_num_layers ft layers_used;
        Log.debug (fun m ->
            m "patched %d destination(s) over %d layer(s)" (List.length dsts) layers_used);
        Ok { table = ft; layers_used })
  end

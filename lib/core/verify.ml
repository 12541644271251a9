type report = {
  stats : Ftable.stats;
  num_layers : int;
  max_layer_seen : int;
  deadlock_free : bool;
}

let collect_store ft =
  match Routing.Ftable.to_store ft with
  | Error _ as e -> e
  | Ok store ->
    let layer_of_path = Array.make (Route_store.capacity store) (-1) in
    Route_store.iter_pairs store (fun pair ->
        let src, dst = Routing.Ftable.pair_of_id ft pair in
        layer_of_path.(pair) <- Routing.Ftable.layer ft ~src ~dst);
    Ok (store, layer_of_path)

let deadlock_free ?(domains = 1) ft =
  match collect_store ft with
  | Error _ -> false (* some pair unroutable; report this via {!report} *)
  | Ok (store, layer_of_path) ->
    let num_layers = 1 + Array.fold_left max 0 layer_of_path in
    Acyclic.layers_acyclic_store ~domains store ~layer_of_path ~num_layers

let report_store ~num_layers store ~layer_of_path =
  match Routing.Ftable.validate_store store with
  | Error msg -> Error msg
  | Ok stats ->
    let max_layer_seen = Array.fold_left max 0 layer_of_path in
    Ok
      {
        stats;
        num_layers;
        max_layer_seen;
        deadlock_free =
          Acyclic.layers_acyclic_store store ~layer_of_path ~num_layers:(1 + max_layer_seen);
      }

let report ft =
  Result.bind (collect_store ft) (fun (store, layer_of_path) ->
      report_store ~num_layers:(Routing.Ftable.num_layers ft) store ~layer_of_path)

let pp_report ppf r =
  Format.fprintf ppf "%a layers=%d (max used %d) deadlock_free=%b" Routing.Ftable.pp_stats r.stats
    r.num_layers r.max_layer_seen r.deadlock_free

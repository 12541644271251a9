let is_acyclic cdg =
  let g = Cdg.graph cdg in
  let m = Graph.num_channels g in
  let indeg = Array.make m 0 in
  Cdg.iter_edges cdg (fun _ c2 _ -> indeg.(c2) <- indeg.(c2) + 1);
  let queue = Queue.create () in
  for c = 0 to m - 1 do
    if indeg.(c) = 0 then Queue.add c queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    incr seen;
    Cdg.iter_successors cdg c (fun c2 ->
        indeg.(c2) <- indeg.(c2) - 1;
        if indeg.(c2) = 0 then Queue.add c2 queue)
  done;
  !seen = m

let layers_acyclic_store ?(domains = 1) store ~layer_of_path ~num_layers =
  if Array.length layer_of_path <> Route_store.capacity store then
    invalid_arg "Acyclic.layers_acyclic_store: length mismatch";
  let check vl = is_acyclic (Cdg.of_store ~filter:(fun pr -> layer_of_path.(pr) = vl) store) in
  Array.for_all Fun.id
    (Parallel.map_array ~domains:(min domains num_layers) check (Array.init num_layers Fun.id))

let layers_acyclic ?domains g ~paths ~layer_of_path ~num_layers =
  if Array.length paths <> Array.length layer_of_path then
    invalid_arg "Acyclic.layers_acyclic: length mismatch";
  layers_acyclic_store ?domains (Route_store.of_paths g paths) ~layer_of_path ~num_layers

let table_acyclic ?domains ft =
  match Routing.Ftable.to_store ft with
  | Error _ -> false
  | Ok store ->
    let layer_of_path = Array.make (Route_store.capacity store) (-1) in
    Route_store.iter_pairs store (fun pair ->
        let src, dst = Routing.Ftable.pair_of_id ft pair in
        layer_of_path.(pair) <- Routing.Ftable.layer ft ~src ~dst);
    let num_layers = 1 + Array.fold_left max 0 layer_of_path in
    layers_acyclic_store ?domains store ~layer_of_path ~num_layers

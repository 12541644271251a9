type t = {
  algorithm : string;
  max_layers : int;
  layer_budget : int;
  repair_fraction : float;
  batch : int;
  domains : int;
  kernel : Routing.Spf.kind;
  engine : Layers.engine;
}

let default =
  {
    algorithm = "dfsssp";
    max_layers = 8;
    layer_budget = 8;
    repair_fraction = 0.5;
    batch = 1;
    domains = 1;
    kernel = Routing.Spf.Auto;
    engine = `Scc;
  }

let validate c =
  let at_least_1 name v =
    if v < 1 then Some (Printf.sprintf "config: %s must be at least 1 (got %d)" name v) else None
  in
  let errors =
    [
      at_least_1 "max_layers" c.max_layers;
      at_least_1 "layer_budget" c.layer_budget;
      at_least_1 "batch" c.batch;
      at_least_1 "domains" c.domains;
      (if Float.is_nan c.repair_fraction || c.repair_fraction < 0.0 || c.repair_fraction > 1.0 then
         Some (Printf.sprintf "config: repair_fraction must be within [0, 1] (got %g)" c.repair_fraction)
       else None);
    ]
  in
  match List.find_map Fun.id errors with
  | Some msg -> Error msg
  | None -> Ok c

let to_json c =
  let int n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("algorithm", Obs.Json.Str c.algorithm);
      ("max_layers", int c.max_layers);
      ("layer_budget", int c.layer_budget);
      ("repair_fraction", Obs.Json.Num c.repair_fraction);
      ("batch", int c.batch);
      ("domains", int c.domains);
      ("kernel", Obs.Json.Str (Routing.Spf.kind_to_string c.kernel));
      ("engine", Obs.Json.Str (Layers.engine_to_string c.engine));
    ]

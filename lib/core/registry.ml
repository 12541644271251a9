type algorithm = {
  name : string;
  deadlock_free_by_design : bool;
  run : Graph.t -> (Ftable.t, string) result;
}

let dfsssp_run ~config ?variant g =
  Result.map_error Router.error_to_string (Router.route ~config ?variant g)

(* Harden an arbitrary base routing with the offline layer assignment —
   the APP machinery is routing-agnostic (DESIGN.md: ablations). *)
let hardened ~config base g =
  match base g with
  | Error _ as e -> e
  | Ok ft -> Result.map_error Router.error_to_string (Router.assign_layers ~config ft)

let all ?coords ?(config = Config.default) () =
  let { Config.batch; domains; kernel; max_layers; _ } = config in
  let minhop = Routing.Minhop.route ~batch ~domains ~kernel in
  let dor name route g =
    match coords with
    | None -> Error (name ^ ": no grid coordinates available for this fabric")
    | Some c -> route g c
  in
  [
    { name = "minhop"; deadlock_free_by_design = false; run = minhop };
    { name = "updown"; deadlock_free_by_design = true; run = Routing.Updown.route ~batch ~domains };
    { name = "ftree"; deadlock_free_by_design = true; run = Routing.Ftree.route ~domains };
    { name = "dor"; deadlock_free_by_design = false; run = dor "dor" (Routing.Dor.route ~domains) };
    {
      name = "lash";
      deadlock_free_by_design = true;
      run = (fun g -> Routing.Lash.route ~max_layers ~kernel g);
    };
    { name = "sssp"; deadlock_free_by_design = false; run = Routing.Sssp.route ~batch ~domains ~kernel };
    { name = "dfsssp"; deadlock_free_by_design = true; run = dfsssp_run ~config };
    {
      name = "dfsssp-online";
      deadlock_free_by_design = true;
      run = dfsssp_run ~config ~variant:Router.Online;
    };
    { name = "dfminhop"; deadlock_free_by_design = true; run = hardened ~config minhop };
    {
      name = "dfdor";
      deadlock_free_by_design = true;
      run = dor "dfdor" (fun g c -> hardened ~config (fun g -> Routing.Dor.route ~domains g c) g);
    };
  ]

let names = List.map (fun a -> a.name) (all ())

let find ?coords ?config name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun a -> a.name = target) (all ?coords ?config ())

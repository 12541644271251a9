type entry = {
  epoch : int;
  label : string;
  verify_s : float;
}

type verdict = {
  stats : Ftable.stats;
  certified_layers : int;
}

type snapshot = {
  snap_epoch : int;
  tables : Ftable.t;
  store : Route_store.t;
  num_layers : int;
  verdict : verdict;
}

type t = {
  mutable epoch : int;
  mutable entries : entry list; (* newest first *)
  mutable snap : snapshot option; (* the current epoch's export, installed by the swap *)
}

let create () = { epoch = 0; entries = []; snap = None }

let epoch t = t.epoch

let active t = Option.map (fun s -> s.tables) t.snap

let history t = List.rev t.entries

let snapshot t =
  match t.snap with
  | Some s -> Ok s
  | None -> Error "no active epoch"

let t_materialise =
  Obs.Registry.timer "fabric.materialise" ~desc:"seconds walking a swap candidate's routes into its arena"

(* The swap gate's one walk of the candidate's routes, by the analysis
   side's own extractor — nothing from construction is reused. *)
let materialise candidate =
  let span = Obs.Trace.begin_span "fabric.materialise" in
  let r = Obs.Timer.time t_materialise (fun () -> Analysis.Cert.artifacts_of_table candidate) in
  Obs.Trace.end_span span
    ~attrs:
      [
        ("ok", Obs.Trace.Bool (Result.is_ok r));
        ("paths", Obs.Trace.Int (match r with Ok (store, _) -> Route_store.num_paths store | Error _ -> 0));
      ];
  r

let try_swap t ~label candidate =
  let span =
    Obs.Trace.begin_span "fabric.try_swap" ~attrs:(fun () -> [("label", Obs.Trace.Str label)])
  in
  let finish ((result, _) as r) =
    Obs.Trace.end_span span
      ~attrs:
        [
          ("ok", Obs.Trace.Bool (Result.is_ok result));
          ("epoch", Obs.Trace.Int t.epoch);
        ];
    r
  in
  finish
  @@
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  (* The topology-level existence gate runs before anything touches the
     candidate's routes: a layer budget below the fabric's provable
     minimum (Analysis.Existence) cannot be certified by any table, so
     the candidate is refused without spending a certificate run on it. *)
  let ex = Analysis.Existence.analyze (Ftable.graph candidate) in
  if ex.Analysis.Existence.min_layers_lb > Ftable.num_layers candidate then
    ( Error
        (Printf.sprintf
           "existence: layer budget %d is below the provable minimum %d for this fabric"
           (Ftable.num_layers candidate) ex.Analysis.Existence.min_layers_lb),
      elapsed () )
  else
  (* One walk of the candidate's routes: the certificate, the stats and
     (on success) the epoch's snapshot all read this one arena, and none
     writes to it. *)
  match materialise candidate with
  | Error msg -> (Error (Printf.sprintf "incomplete routing: %s" msg), elapsed ())
  | Ok (store, layer_of_path) -> (
    let num_layers = Ftable.num_layers candidate in
    (* The one deadlock proof: the trusted checker in lib/analysis must
       accept a topological witness for every layer. A table it cannot
       certify never goes live, whatever the code that built it
       believes. *)
    match Analysis.Analyzer.certify_store ~num_layers store ~layer_of_path with
    | Error msg -> (Error (Printf.sprintf "certificate: %s" msg), elapsed ())
    | Ok cert -> (
      match Ftable.validate_store store with
      | Error msg -> (Error (Printf.sprintf "incomplete routing: %s" msg), elapsed ())
      | Ok stats ->
        let verify_s = elapsed () in
        let verdict = { stats; certified_layers = Analysis.Cert.num_layers cert } in
        t.epoch <- t.epoch + 1;
        t.snap <- Some { snap_epoch = t.epoch; tables = candidate; store; num_layers; verdict };
        t.entries <- { epoch = t.epoch; label; verify_s } :: t.entries;
        (Ok verdict, verify_s)))

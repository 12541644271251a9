let log_src = Logs.Src.create "fabric.manager" ~doc:"event-driven fabric manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = Dfsssp.Config.t = {
  algorithm : string;
  max_layers : int;
  layer_budget : int;
  repair_fraction : float;
  batch : int;
  domains : int;
  kernel : Spf.kind;
  engine : Layers.engine;
}

let default_config = Dfsssp.Config.default

type action =
  | Incremental of {
      repaired : int;
      total : int;
    }
  | Full of string
  | Noop

type outcome = {
  event : Event.t;
  applied : bool;
  action : action;
  fallback : bool;
  epoch : int;
  verify : Epoch.verdict option;
  table_diff : Ftable.diff option;
  note : string;
  elapsed_s : float;
}

type t = {
  config : config;
  state : Fabstate.t;
  epochs : Epoch.t;
  metrics : Metrics.t;
  mutable weights : int array;
  mutable outcomes : outcome list; (* newest first *)
  mutable pool : Sssp.pool option;
      (* persistent routing-domain pool ([domains > 1] only): scratch is
         epoch-stamped, so the same pool serves every full recompute even
         across structural rebuilds of the graph *)
}

let config t = t.config

let graph t = Fabstate.graph t.state

let tables t = Option.get (Epoch.active t.epochs)

let metrics t = t.metrics

let epoch t = Epoch.epoch t.epochs

let epoch_history t = Epoch.history t.epochs

let event_log t = List.rev t.outcomes

(* Full recompute: fresh weight state, route everything, re-break all
   cycles. The incremental path's last resort and the only path for
   structural rebuilds and non-DFSSSP algorithms. *)
let full_route t =
  let g = Fabstate.graph t.state in
  Obs.Trace.with_span "fabric.full_route"
    ~attrs:(fun () ->
      [
        ("algorithm", Obs.Trace.Str t.config.algorithm);
        ("terminals", Obs.Trace.Int (Graph.num_terminals g));
      ])
  @@ fun () ->
  if t.config.algorithm = "dfsssp" then begin
    t.weights <- Sssp.initial_weights g;
    match
      Sssp.route_plane ~batch:t.config.batch ?pool:t.pool ~kernel:t.config.kernel g
        ~weights:t.weights
    with
    | Error msg -> Error msg
    | Ok ft -> Result.map_error Dfsssp.error_to_string (Dfsssp.assign_layers ~config:t.config ft)
  end
  else
    match Dfsssp.Registry.find ~config:t.config t.config.algorithm with
    | None -> Error (Printf.sprintf "unknown algorithm %S" t.config.algorithm)
    | Some a -> a.Dfsssp.Registry.run g

let release t =
  match t.pool with
  | None -> ()
  | Some pool ->
    Sssp.destroy_pool pool;
    t.pool <- None

(* The one teardown path for every exit — clean, exception or signal:
   a killed daemon must neither leak worker domains nor truncate a
   JSON-lines trace mid-object. Idempotent. *)
let shutdown t =
  release t;
  Obs.Trace.flush ()

let snapshot t = Epoch.snapshot t.epochs

let create ?(config = default_config) g =
  Result.iter_error invalid_arg (Dfsssp.Config.validate config);
  if Graph.num_terminals g < 2 then Error "Manager.create: fabric has fewer than two terminals"
  else begin
    let t =
      {
        config;
        state = Fabstate.create g;
        epochs = Epoch.create ();
        metrics = Metrics.create ();
        weights = Sssp.initial_weights g;
        outcomes = [];
        pool = (if config.domains > 1 then Some (Sssp.create_pool ~domains:config.domains ()) else None);
      }
    in
    match full_route t with
    | Error msg ->
      release t;
      Error msg
    | Ok ft -> (
      match Epoch.try_swap t.epochs ~label:"initial" ft with
      | Error msg, verify_s ->
        Obs.Timer.add t.metrics.Metrics.verify verify_s;
        release t;
        Error (Printf.sprintf "initial tables rejected: %s" msg)
      | Ok _, verify_s ->
        Obs.Timer.add t.metrics.Metrics.verify verify_s;
        Obs.Counter.set t.metrics.Metrics.swap_epochs (Epoch.epoch t.epochs);
        Ok t)
  end

let finish t outcome =
  t.outcomes <- outcome :: t.outcomes;
  Log.info (fun m ->
      m "%s: %s%s epoch %d" (Event.to_string outcome.event)
        (match outcome.action with
        | Incremental { repaired; total } -> Printf.sprintf "incremental %d/%d" repaired total
        | Full reason -> "full (" ^ reason ^ ")"
        | Noop -> "noop")
        (if outcome.note = "" then "" else " [" ^ outcome.note ^ "]")
        outcome.epoch);
  outcome

let full_swap t ~event ~t0 ~reason ~fallback ~diff_against =
  let m = t.metrics in
  let tr0 = Unix.gettimeofday () in
  match full_route t with
  | Error msg ->
    Obs.Timer.add m.Metrics.repair (Unix.gettimeofday () -. tr0);
    Obs.Counter.incr m.Metrics.full_recompute_failures;
    finish t
      {
        event;
        applied = true;
        action = Full reason;
        fallback;
        epoch = Epoch.epoch t.epochs;
        verify = None;
        table_diff = None;
        note = "FULL RECOMPUTE FAILED, serving stale tables: " ^ msg;
        elapsed_s = Unix.gettimeofday () -. t0;
      }
  | Ok ft -> (
    Obs.Timer.add m.Metrics.repair (Unix.gettimeofday () -. tr0);
    match Epoch.try_swap t.epochs ~label:(Event.to_string event ^ " (full)") ft with
    | Error msg, verify_s ->
      Obs.Timer.add m.Metrics.verify verify_s;
      Obs.Counter.incr m.Metrics.verify_failures;
      Obs.Counter.incr m.Metrics.full_recompute_failures;
      finish t
        {
          event;
          applied = true;
          action = Full reason;
          fallback;
          epoch = Epoch.epoch t.epochs;
          verify = None;
          table_diff = None;
          note = "full recompute rejected, serving stale tables: " ^ msg;
          elapsed_s = Unix.gettimeofday () -. t0;
        }
    | Ok r, verify_s ->
      Obs.Timer.add m.Metrics.verify verify_s;
      Obs.Counter.incr m.Metrics.full_recomputes;
      Obs.Counter.set m.Metrics.swap_epochs (Epoch.epoch t.epochs);
      let table_diff = Option.map (fun old -> Ftable.diff old ft) diff_against in
      finish t
        {
          event;
          applied = true;
          action = Full reason;
          fallback;
          epoch = Epoch.epoch t.epochs;
          verify = Some r;
          table_diff;
          note = "";
          elapsed_s = Unix.gettimeofday () -. t0;
        })

let incremental_swap t ~event ~t0 ~old_ft ~affected =
  let m = t.metrics in
  let g = Fabstate.graph t.state in
  let total = Graph.num_terminals g in
  let budget = int_of_float (t.config.repair_fraction *. float_of_int total) in
  if t.config.algorithm <> "dfsssp" then
    full_swap t ~event ~t0 ~reason:(t.config.algorithm ^ " has no incremental path") ~fallback:false
      ~diff_against:(Some old_ft)
  else if List.length affected > budget then
    full_swap t ~event ~t0
      ~reason:(Printf.sprintf "%d/%d destinations affected, over repair budget" (List.length affected) total)
      ~fallback:false ~diff_against:(Some old_ft)
  else begin
    let tr0 = Unix.gettimeofday () in
    let patched =
      Obs.Trace.with_span "fabric.repair"
        ~attrs:(fun () ->
          [("destinations", Obs.Trace.Int (List.length affected)); ("total", Obs.Trace.Int total)])
        (fun () ->
          Repair.patch ~config:t.config ~graph:g ~old:old_ft ~dsts:affected ~weights:t.weights ())
    in
    match patched with
    | Error msg ->
      Obs.Timer.add m.Metrics.repair (Unix.gettimeofday () -. tr0);
      Obs.Counter.incr m.Metrics.fallbacks;
      full_swap t ~event ~t0 ~reason:("incremental repair failed: " ^ msg) ~fallback:true
        ~diff_against:(Some old_ft)
    | Ok patched -> (
      Obs.Timer.add m.Metrics.repair (Unix.gettimeofday () -. tr0);
      match Epoch.try_swap t.epochs ~label:(Event.to_string event ^ " (incremental)") patched.Repair.table with
      | Error msg, verify_s ->
        Obs.Timer.add m.Metrics.verify verify_s;
        Obs.Counter.incr m.Metrics.verify_failures;
        Obs.Counter.incr m.Metrics.fallbacks;
        full_swap t ~event ~t0 ~reason:("incremental tables rejected: " ^ msg) ~fallback:true
          ~diff_against:(Some old_ft)
      | Ok r, verify_s ->
        Obs.Timer.add m.Metrics.verify verify_s;
        Obs.Counter.incr m.Metrics.incremental_repairs;
        Obs.Counter.incr ~n:(List.length affected) m.Metrics.dsts_repaired;
        Obs.Counter.incr ~n:total m.Metrics.dsts_total;
        Obs.Counter.set m.Metrics.swap_epochs (Epoch.epoch t.epochs);
        finish t
          {
            event;
            applied = true;
            action = Incremental { repaired = List.length affected; total };
            fallback = false;
            epoch = Epoch.epoch t.epochs;
            verify = Some r;
            table_diff = Some (Ftable.diff old_ft patched.Repair.table);
            note = "";
            elapsed_s = Unix.gettimeofday () -. t0;
          })
  end

let apply_inner t event =
  let t0 = Unix.gettimeofday () in
  let m = t.metrics in
  Obs.Counter.incr m.Metrics.events_seen;
  let old_ft = tables t in
  let old_graph = Fabstate.graph t.state in
  match Fabstate.apply t.state event with
  | Error msg ->
    Obs.Counter.incr m.Metrics.events_rejected;
    finish t
      {
        event;
        applied = false;
        action = Noop;
        fallback = false;
        epoch = Epoch.epoch t.epochs;
        verify = None;
        table_diff = None;
        note = "rejected: " ^ msg;
        elapsed_s = Unix.gettimeofday () -. t0;
      }
  | Ok change -> (
    Obs.Counter.incr m.Metrics.events_applied;
    match change with
    | Fabstate.Rebuilt ->
      full_swap t ~event ~t0 ~reason:"structural rebuild" ~fallback:false ~diff_against:None
    | Fabstate.Disabled [] ->
      (* a drain that could spare no cable: topology unchanged *)
      finish t
        {
          event;
          applied = true;
          action = Noop;
          fallback = false;
          epoch = Epoch.epoch t.epochs;
          verify = None;
          table_diff = None;
          note = "no cable could be drained";
          elapsed_s = Unix.gettimeofday () -. t0;
        }
    | Fabstate.Disabled chans ->
      incremental_swap t ~event ~t0 ~old_ft
        ~affected:(Repair.affected_destinations old_ft ~channels:chans)
    | Fabstate.Restored chans ->
      incremental_swap t ~event ~t0 ~old_ft
        ~affected:
          (Repair.beneficiary_destinations ~old_graph ~graph:(Fabstate.graph t.state) ~restored:chans))

let apply t event =
  let span =
    Obs.Trace.begin_span "fabric.apply" ~attrs:(fun () ->
        [("event", Obs.Trace.Str (Event.to_string event))])
  in
  let o = apply_inner t event in
  Obs.Trace.end_span span
    ~attrs:
      [
        ( "action",
          Obs.Trace.Str
            (match o.action with
            | Incremental _ -> "incremental"
            | Full _ -> "full"
            | Noop -> "noop") );
        ("applied", Obs.Trace.Bool o.applied);
        ("epoch", Obs.Trace.Int o.epoch);
      ];
  o

let run t schedule = List.map (apply t) schedule

let pp_action ppf = function
  | Incremental { repaired; total } ->
    Format.fprintf ppf "incremental %d/%d dsts (%.0f%%)" repaired total
      (if total = 0 then 0.0 else 100.0 *. float_of_int repaired /. float_of_int total)
  | Full reason -> Format.fprintf ppf "full recompute (%s)" reason
  | Noop -> Format.pp_print_string ppf "no-op"

let pp_outcome ppf o =
  Format.fprintf ppf "%-12s %a" (Event.to_string o.event) pp_action o.action;
  if o.fallback then Format.fprintf ppf " [fallback]";
  (match o.table_diff with
  | Some d when o.applied -> Format.fprintf ppf ", %d entries rewritten" d.Ftable.entries_changed
  | _ -> ());
  Format.fprintf ppf ", epoch %d" o.epoch;
  (match o.verify with
  | Some r ->
    Format.fprintf ppf ", %d layer(s), certified deadlock-free%s" r.Epoch.certified_layers
      (if r.Epoch.stats.Ftable.minimal then "" else " (detours)")
  | None -> ());
  if o.note <> "" then Format.fprintf ppf " — %s" o.note

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>%a@," Metrics.pp t.metrics;
  Format.fprintf ppf "fabric: %a@," Graph.pp_stats (graph t);
  match Epoch.snapshot t.epochs with
  | Error _ -> Format.fprintf ppf "no active tables@]"
  | Ok s ->
    Format.fprintf ppf "active tables: epoch %d, %a layers=%d paths=%d, certified deadlock-free@]"
      s.Epoch.snap_epoch Ftable.pp_stats s.Epoch.verdict.Epoch.stats
      s.Epoch.verdict.Epoch.certified_layers (Route_store.num_paths s.Epoch.store)

let converged t =
  List.for_all
    (fun o ->
      (not o.applied)
      ||
      match o.action with
      | Noop -> true
      | Incremental _ | Full _ -> o.verify <> None)
    t.outcomes

(* Shared pieces of the controller benchmark: sample statistics, the
   metric record every workload prints, process memory, span self
   times and the provenance stamp written beside every result. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
}

let metric name unit_ value = { name; unit_; value }

(* What a workload run reports: its metrics, whether every output check
   passed, and operations attempted/failed. *)
type outcome = {
  metrics : metric list;
  correct : bool;
  attempted : int;
  failed : int;
}

let now () = Unix.gettimeofday ()

(* Nearest-rank percentile of an already ranked sample; [p] in [0, 1]. *)
let nearest_rank p ranked =
  let n = Array.length ranked in
  if n = 0 then nan
  else ranked.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile p xs = nearest_rank p (sorted xs)

let median xs = percentile 0.5 xs

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* A "Key: <n> kB" line of a /proc file, in MB; [nan] when absent. *)
let proc_mb path key =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> nan
  | lines ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ k; v ] when k = key -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      nan lines

(* VmHWM (peak resident set) of a process, in MB; [pid] "self" for
   this one. *)
let peak_rss_mb pid = proc_mb (Printf.sprintf "/proc/%s/status" pid) "VmHWM"

(* Reset this process's VmHWM to its current resident set, so the next
   reading is the peak of what ran in between. Where the kernel does not
   allow it, VmHWM stays the peak since the process started. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let parse_spec spec =
  match Harness.Topospec.parse spec with
  | Ok t -> t.Harness.Topospec.graph
  | Error msg -> failwith (Printf.sprintf "topology %s: %s" spec msg)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span as the benchmark sees it, whether it came from an in-process
   sink or the daemon's [trace] op. *)
type span = {
  id : int;
  parent : int option;
  sname : string;
  dur_s : float;
}

let of_trace_span (s : Obs.Trace.span) =
  { id = s.Obs.Trace.id; parent = s.Obs.Trace.parent; sname = s.Obs.Trace.name; dur_s = s.Obs.Trace.dur_s }

let of_span_json j =
  let num k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
  match (num "id", Option.bind (Obs.Json.member "name" j) Obs.Json.to_str, num "dur_ms") with
  | Some id, Some sname, Some ms ->
    Some { id = int_of_float id; parent = Option.map int_of_float (num "parent"); sname; dur_s = ms /. 1000.0 }
  | _ -> None

(* A collecting sink; spans are kept in memory and read at the end. *)
let collector () =
  let spans = ref [] in
  let lock = Mutex.create () in
  let sink =
    {
      Obs.Trace.emit =
        (fun s ->
          Mutex.lock lock;
          spans := of_trace_span s :: !spans;
          Mutex.unlock lock);
      flush = (fun () -> ());
    }
  in
  (sink, fun () -> List.rev !spans)

(* Summed self time (duration minus direct children) of every span
   called [name]. *)
let self_time spans name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        let sum = Option.value (Hashtbl.find_opt children p) ~default:0.0 in
        Hashtbl.replace children p (s.dur_s +. sum)
      | None -> ())
    spans;
  List.fold_left
    (fun acc s ->
      if s.sname = name then
        acc +. s.dur_s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
      else acc)
    0.0 spans

let total_time spans name =
  List.fold_left (fun acc s -> if s.sname = name then acc +. s.dur_s else acc) 0.0 spans

(* ------------------------------------------------------------------ *)
(* Obs registry deltas                                                 *)
(* ------------------------------------------------------------------ *)

let counter_value name =
  match Obs.Registry.find_counter (Obs.Registry.default ()) name with
  | Some c -> Obs.Counter.value c
  | None -> 0

let timer_sum name =
  match Obs.Registry.find_timer (Obs.Registry.default ()) name with
  | Some t -> Obs.Timer.sum_s t
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Provenance and output                                               *)
(* ------------------------------------------------------------------ *)

let config_json (c : Fabric.Manager.config) =
  Obs.Json.Obj
    [
      ("algorithm", Obs.Json.Str c.Fabric.Manager.algorithm);
      ("max_layers", Obs.Json.Num (float_of_int c.Fabric.Manager.max_layers));
      ("layer_budget", Obs.Json.Num (float_of_int c.Fabric.Manager.layer_budget));
      ("repair_fraction", Obs.Json.Num c.Fabric.Manager.repair_fraction);
      ("batch", Obs.Json.Num (float_of_int c.Fabric.Manager.batch));
      ("domains", Obs.Json.Num (float_of_int c.Fabric.Manager.domains));
      ("kernel", Obs.Json.Str (Spf.kind_to_string c.Fabric.Manager.kernel));
      ("engine", Obs.Json.Str (Layers.engine_to_string c.Fabric.Manager.engine));
    ]

(* The git rev comes from run.py, which can see the checkout. *)
let provenance ~workload ~seed ~trace =
  let rev = Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown" in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.Str workload);
      ("seed", Obs.Json.Num (float_of_int seed));
      ("trace", Obs.Json.Bool trace);
      ("rev", Obs.Json.Str rev);
      ("nproc", Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("mem_total_mb", Obs.Json.Num (Float.round (proc_mb "/proc/meminfo" "MemTotal")));
      ("ocaml", Obs.Json.Str Sys.ocaml_version);
      ("manager_config", config_json Fabric.Manager.default_config);
      ("time", Obs.Json.Num (Float.round (now ())));
    ]

(* The closing result line: exactly correct/attempted/failed/metrics. *)
let result_json ~correct ~attempted ~failed metrics =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool correct);
      ("attempted", Obs.Json.Num (float_of_int attempted));
      ("failed", Obs.Json.Num (float_of_int failed));
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun m ->
               (m.name, Obs.Json.Obj [ ("value", Obs.Json.Num m.value); ("unit", Obs.Json.Str m.unit_) ]))
             metrics) );
    ]

let print_metrics metrics =
  List.iter (fun m -> Printf.printf "  %-28s %14.6g %s\n" m.name m.value m.unit_) metrics

(* A failed output check: reported on stderr, never retried. *)
let check_failed fmt = Printf.ksprintf (fun msg -> Printf.eprintf "CHECK FAILED: %s\n%!" msg) fmt


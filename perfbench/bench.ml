(* The controller benchmark: one command, two workloads, every metric
   printed by name with its unit on every workload, every output
   checked. See README.md in this directory.

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
     bench.exe --self-check
     bench.exe serve --spec <topology> --sock <path>     (the churn daemon)

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the provenance stamp. *)

open Common

(* Every workload is one controller session in two phases: back-to-back
   cold builds of a large fabric, then serving under churn on a fabric
   that presses on the layer budget. The workloads differ in the cold
   fabric and in the churn schedule. *)
type workload = {
  cold : string;
  churn : Churn.params;
}

let torus_churn schedule =
  { Churn.spec = "torus:8x8:4"; gap_s = 0.5; episode_events = 14; schedule; replays = 3; setups = 6 }

let workloads =
  [
    ("xgft1024", { cold = "xgft:32,32/1,16:1024"; churn = torus_churn 3 });
    ("jellyfish1024", { cold = "jellyfish:128,16,8:3"; churn = torus_churn 4 });
  ]

(* Small fabrics that drive the same code paths in seconds (--self-check). *)
let quick w =
  {
    cold = (if String.starts_with ~prefix:"xgft" w.cold then "xgft:4,4/1,2:16" else "jellyfish:16,8,4:3");
    churn = { w.churn with Churn.spec = "torus:4x4:2"; gap_s = 0.05; episode_events = 6; setups = 1 };
  }

(* The cold builds take a quarter of the run's [seconds]. The first
   builds run before the churn phase, so the first build, whose peak
   memory is reported, starts in a fresh process as a newly started
   controller's does. Untraced, the rest come in slices after each churn
   replay, so the builds, like the replays, spread over the whole run
   and a spell of a slow host does not cover them all. The churn phase
   is a fixed scenario that takes about the rest of the run. A run's
   set-up is both phases' set-up: generating the cold fabric and
   starting the daemon. *)
let run_workload w ~seed ~seconds ~trace =
  let seconds = seconds /. 4.0 in
  let k, c =
    if trace then
      let k = Cold.run_traced ~spec:w.cold ~seconds ~min_builds:2 in
      Gc.compact ();
      (k, Churn.run w.churn ~seed ~traced:true)
    else begin
      let slice = seconds /. float_of_int (w.churn.Churn.replays + 1) in
      let cold = Cold.start w.cold in
      let build_slice () =
        Cold.build_for cold ~seconds:slice ~min_builds:1;
        Gc.compact ()
      in
      build_slice ();
      let c = Churn.run w.churn ~seed ~traced:false ~between:build_slice in
      (Cold.finish cold, c)
    end
  in
  let setup, rest = List.partition (fun m -> m.name = "setup_s") (k.metrics @ c.metrics) in
  let metrics =
    if setup = [] then rest
    else metric "setup_s" "s" (List.fold_left (fun acc m -> acc +. m.value) 0.0 setup) :: rest
  in
  {
    metrics;
    correct = k.correct && c.correct;
    attempted = k.attempted + c.attempted;
    failed = k.failed + c.failed;
  }

let report ~name ~seed ~trace o =
  Printf.printf "%s (seed %d, %s):\n" name seed (if trace then "traced" else "untraced");
  print_metrics o.metrics;
  print_endline (Obs.Json.to_string (provenance ~workload:name ~seed ~trace));
  print_endline
    (Obs.Json.to_string
       (result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics))

(* The path validator must reject what it exists to catch: a path into a
   channel that is down, and paths that are not walks. *)
let validator_self_check () =
  let g = parse_spec "torus:4x4:1" in
  let ft =
    match Fabric.Manager.create g with
    | Ok m -> Fabric.Manager.tables m
    | Error msg -> failwith msg
  in
  let terms = Graph.terminals g in
  let src = terms.(0) and dst = terms.(Array.length terms - 1) in
  let path = Option.get (Ftable.path ft ~src ~dst) in
  let down_since = Array.make (Graph.num_channels g) infinity in
  let check ~sent p = Churn.check_path g ~down_since ~sent ~src ~dst p in
  let ok1 = check ~sent:1.0 path = Churn.Valid in
  (* black-hole the middle channel: confirmed down at t=0 *)
  down_since.(path.(Array.length path / 2)) <- 0.0;
  let ok2 = (match check ~sent:1.0 path with Churn.Dead _ -> true | _ -> false) in
  (* a read sent before the down was confirmed is not held against it *)
  let ok3 = check ~sent:(-1.0) path = Churn.Valid in
  let malformed p = match check ~sent:1.0 p with Churn.Malformed _ -> true | _ -> false in
  let ok4 = malformed (Array.sub path 0 (Array.length path - 1)) in
  let ok5 = malformed (Array.append [| path.(1) |] path) in
  let all = ok1 && ok2 && ok3 && ok4 && ok5 in
  Printf.printf "validator self-check: valid=%b black-hole=%b early-read=%b truncated=%b not-a-walk=%b\n"
    ok1 ok2 ok3 ok4 ok5;
  all

let self_check () =
  let ok = ref (validator_self_check ()) in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun trace ->
          let o = run_workload (quick w) ~seed:3 ~seconds:0.5 ~trace in
          Printf.printf "quick %s trace=%b: correct=%b attempted=%d failed=%d metrics=%d\n%!" name trace
            o.correct o.attempted o.failed (List.length o.metrics);
          if not o.correct then ok := false)
        [ false; true ])
    workloads;
  print_endline (if !ok then "self-check passed" else "self-check FAILED");
  exit (if !ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
    \       bench.exe --self-check\n\
    \       bench.exe serve --spec <topology> --sock <path>";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "serve"; "--spec"; spec; "--sock"; sock ] -> Churn.serve ~spec ~sock
  | [ "--self-check" ] -> self_check ()
  | _ ->
    let rec opts acc = function
      | [] -> acc
      | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let name = get "workload" in
    let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
    let trace = get "trace" = "1" in
    let w =
      match List.assoc_opt name workloads with
      | Some w -> w
      | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" name (String.concat ", " (List.map fst workloads));
        exit 2
    in
    let o = run_workload w ~seed ~seconds ~trace in
    report ~name ~seed ~trace o;
    exit 0

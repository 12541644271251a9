(* The serving-under-churn workload: the controller daemon
   ([Service.Server], shipped defaults) runs in its own process; this
   process is a single-threaded load generator holding two Unix-socket
   connections to it.

   - reads: open-loop [route] queries at a fixed rate, each timed from
     the moment it was due;
   - writes: the topology events of [Schedule.generate] (link down/up
     only, seeded by the workload seed), sent closed loop with a fixed
     gap after each reply.

   A run is a sequence of episodes. Each episode starts a fresh daemon
   on the healthy fabric (its start-up is one set-up sample), replays
   one fixed-length schedule, then shuts the daemon down. The schedule
   is the workload's own ([params.schedule]) and is replayed
   [params.replays] times, so every run replays the same churn and its
   success shares are a property of the program, not of the draw; the
   run seed draws the read targets. Every reply is checked against the
   fabric this generator has driven. *)

open Common

(* Reads per second: well below the daemon's single-connection
   capacity (tens of thousands per second), so reads measure stalls,
   not saturation. *)
let read_rate = 1000.0

type params = {
  spec : string;
  gap_s : float;  (** pause after each event reply *)
  episode_events : int;
  schedule : int;  (** [Schedule.generate] seed of the churn episodes *)
  replays : int;  (** churn episodes, each replaying the schedule on a fresh daemon *)
  setups : int;  (** extra start-up-only episodes, for more set-up samples *)
}

(* ------------------------------------------------------------------ *)
(* Server side                                                         *)
(* ------------------------------------------------------------------ *)

let serve ~spec ~sock =
  let g = parse_spec spec in
  let config = { Service.Server.default_config with addr = Service.Proto.Unix_path sock } in
  match Service.Server.create ~config g with
  | Error msg ->
    Printf.eprintf "serve: %s\n%!" msg;
    exit 1
  | Ok server ->
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Service.Server.stop server));
    Service.Server.serve server;
    exit 0

(* ------------------------------------------------------------------ *)
(* Path validation                                                     *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Valid
  | Dead of int  (** crosses a channel down the whole time the read was out *)
  | Malformed of string  (** not a walk from src to dst on this fabric *)

(* [down_since.(c)] is when channel [c] was last confirmed down (the
   down event's reply arrived) and not yet sent back up; [infinity]
   otherwise. A path is dead when one of its channels was confirmed
   down before the read was sent and no up was sent since. *)
let check_path g ~down_since ~sent ~src ~dst path =
  let n = Array.length path in
  let nch = Graph.num_channels g in
  if src = dst then if n = 0 then Valid else Malformed "non-empty path for src = dst"
  else if n = 0 then Malformed "empty path"
  else begin
    let at = ref src and bad = ref None in
    Array.iter
      (fun c ->
        if !bad = None then
          if c < 0 || c >= nch then bad := Some (Printf.sprintf "unknown channel %d" c)
          else begin
            let ch = Graph.channel g c in
            if ch.Channel.src <> !at then bad := Some (Printf.sprintf "channel %d does not leave node %d" c !at)
            else at := ch.Channel.dst
          end)
      path;
    match !bad with
    | Some msg -> Malformed msg
    | None when !at <> dst -> Malformed (Printf.sprintf "path ends at %d, not %d" !at dst)
    | None -> (
      match Array.find_opt (fun c -> down_since.(c) <= sent) path with
      | Some c -> Dead c
      | None -> Valid)
  end

let cable_channels g c =
  match Graph.reverse_channel g c with
  | Some r -> [ c; r ]
  | None -> [ c ]

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable out : Bytes.t;  (** frames not yet accepted by the socket: [out_pos, out_len) *)
  mutable out_pos : int;
  mutable out_len : int;
}

let chunk = Bytes.create 65536

let send conn json = Service.Proto.write_frame conn.fd (Obs.Json.to_string json)

(* Non-blocking send: a daemon busy in a manager step stops reading, and
   an open-loop generator must keep its schedule rather than block on a
   full socket. [flush] pushes what the socket takes now. *)
let pending conn = conn.out_len > conn.out_pos

let flush conn =
  (match Unix.single_write conn.fd conn.out conn.out_pos (conn.out_len - conn.out_pos) with
  | k -> conn.out_pos <- conn.out_pos + k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  if not (pending conn) then begin
    conn.out_pos <- 0;
    conn.out_len <- 0
  end

(* Queue a frame; write at once only when nothing is queued ahead of it,
   otherwise the select loop flushes when the socket drains. *)
let enqueue conn json =
  let frame = Service.Proto.frame (Obs.Json.to_string json) in
  let n = Bytes.length frame and queued = conn.out_len - conn.out_pos in
  if conn.out_len + n > Bytes.length conn.out then begin
    let nb = Bytes.create (max (Bytes.length conn.out) (2 * (queued + n))) in
    Bytes.blit conn.out conn.out_pos nb 0 queued;
    conn.out <- nb;
    conn.out_pos <- 0;
    conn.out_len <- queued
  end;
  Bytes.blit frame 0 conn.out conn.out_len n;
  conn.out_len <- conn.out_len + n;
  if queued = 0 then flush conn

(* Read what is available and return every complete frame, unparsed. *)
let receive conn =
  let k =
    try Unix.read conn.fd chunk 0 (Bytes.length chunk)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> -1
  in
  let k = if k < 0 then 0 else if k = 0 then failwith "daemon closed the connection" else k in
  if conn.len + k > Bytes.length conn.buf then begin
    let nb = Bytes.create (max (2 * Bytes.length conn.buf) (conn.len + k)) in
    Bytes.blit conn.buf 0 nb 0 conn.len;
    conn.buf <- nb
  end;
  Bytes.blit chunk 0 conn.buf conn.len k;
  conn.len <- conn.len + k;
  let frames = ref [] and pos = ref 0 and continue = ref true in
  while !continue && conn.len - !pos >= 4 do
    let n = Int32.to_int (Bytes.get_int32_be conn.buf !pos) in
    if conn.len - !pos >= 4 + n then begin
      frames := Bytes.sub_string conn.buf (!pos + 4) n :: !frames;
      pos := !pos + 4 + n
    end
    else continue := false
  done;
  Bytes.blit conn.buf !pos conn.buf 0 (conn.len - !pos);
  conn.len <- conn.len - !pos;
  List.rev !frames

let parse s = match Obs.Json.of_string s with Ok j -> j | Error e -> failwith ("bad reply: " ^ e)

(* Blocking request/reply, for the quiet moments of an episode. *)
let call conn json =
  send conn json;
  let rec wait () =
    match receive conn with
    | [] -> wait ()
    | [ s ] -> parse s
    | _ -> failwith "unexpected pipelined reply"
  in
  wait ()

let connect path ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Bytes.create 65536; len = 0; out = Bytes.create 65536; out_pos = 0; out_len = 0 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let num k j = Option.bind (Obs.Json.member k j) Obs.Json.to_float

let int_of k j = Option.map int_of_float (num k j)

let route_req ~id ~src ~dst =
  Obs.Json.Obj
    [
      ("op", Obs.Json.Str "route");
      ("id", Obs.Json.Num (float_of_int id));
      ("src", Obs.Json.Num (float_of_int src));
      ("dst", Obs.Json.Num (float_of_int dst));
    ]

let op name = Obs.Json.Obj [ ("op", Obs.Json.Str name) ]

(* ------------------------------------------------------------------ *)
(* One episode                                                         *)
(* ------------------------------------------------------------------ *)

type read = {
  src : int;
  dst : int;
  due : float;
  sent : float;
  mutable recv : float;  (** [nan] until the reply arrives *)
  mutable ok : bool;
  stalled : bool;  (** due while an event was outstanding *)
  window : int;  (** events sent when the read was due *)
}

type event_rec = {
  ev_sent : float;
  ev_recv : float;
  new_epoch : bool;
}

type episode = {
  setup : float;
  reads : read array;
  events : event_rec array;
  server_rss : float;
  malformed : int;
  wrong_epoch1 : int;
  dead : int;
  max_backlog : int;
  stats : Obs.Json.t option;
  spans : span list;
  rpc_failures : int;
  scheduled : int;
  closed : float;  (** when the episode stopped observing: last reply + gap *)
}

let run_dir = Filename.concat ".bench_build" "run"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let episode p ~g ~reference ~rng ~schedule ~traced ~index =
  mkdir_p run_dir;
  let sock = Filename.concat run_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) index) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let terms = Graph.terminals g in
  let pick () =
    let s = Rng.pick rng terms in
    let rec other () =
      let d = Rng.pick rng terms in
      if d = s then other () else d
    in
    (s, other ())
  in
  let t_spawn = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; "--spec"; p.spec; "--sock"; sock |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Unix.unlink sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rd = connect sock ~deadline:(t_spawn +. 120.0) in
  (* set-up: daemon start until the first route reply *)
  let s0, d0 = pick () in
  let first = call rd (route_req ~id:(-1) ~src:s0 ~dst:d0) in
  let setup = now () -. t_spawn in
  if Obs.Json.member "status" first <> Some (Obs.Json.Str "ok") then failwith "first route query failed";
  Unix.set_nonblock rd.fd;
  let wr = connect sock ~deadline:(now () +. 5.0) in
  let nch = Graph.num_channels g in
  let down_since = Array.make nch infinity in
  let reads = ref [] and nreads = ref 0 in
  let by_id = Hashtbl.create 4096 in
  let outstanding = ref 0 and max_backlog = ref 0 in
  let malformed = ref 0 and dead = ref 0 and wrong_epoch1 = ref 0 and rpc_failures = ref 0 in
  let last_read_epoch = ref 0 in
  let events = Array.of_list schedule in
  let ev_recs = ref [] in
  let next_ev = ref 0 in
  let ev_out = ref None (* send time of the outstanding event *) in
  let awaiting_trace = ref false in
  let epoch = ref 1 in
  let idle_until = ref (if schedule = [] then now () else now () +. p.gap_s) in
  let spans = Hashtbl.create 1024 in
  let period = 1.0 /. read_rate in
  let next_due = ref (now () +. period) in
  let reads_open = ref true and closed = ref nan in
  (* Issue every read that is due. Also called between replies, so that
     draining the burst of replies after a stall never delays the
     schedule. *)
  let send_due () =
    if !reads_open then begin
      let t = now () in
      while !next_due <= t do
        let src, dst = pick () in
        let id = !nreads in
        let r =
          {
            src;
            dst;
            due = !next_due;
            sent = now ();
            recv = nan;
            ok = false;
            stalled = !ev_out <> None;
            window = !next_ev;
          }
        in
        Hashtbl.replace by_id id r;
        reads := r :: !reads;
        incr nreads;
        incr outstanding;
        max_backlog := max !max_backlog !outstanding;
        enqueue rd (route_req ~id ~src ~dst);
        next_due := !next_due +. period
      done
    end
  in
  let handle_read s t =
    let j = parse s in
    match int_of "id" j with
    | None -> incr rpc_failures
    | Some id -> (
      match Hashtbl.find_opt by_id id with
      | None -> incr rpc_failures
      | Some r ->
        Hashtbl.remove by_id id;
        decr outstanding;
        r.recv <- t;
        if Obs.Json.member "status" j <> Some (Obs.Json.Str "ok") then incr rpc_failures
        else begin
          let path =
            match Option.bind (Obs.Json.member "path" j) Obs.Json.to_list with
            | Some l -> Array.of_list (List.filter_map Obs.Json.to_int l)
            | None -> [||]
          in
          let ep = Option.value (int_of "epoch" j) ~default:0 in
          if ep < !last_read_epoch then begin
            incr malformed;
            check_failed "read %d: epoch went back from %d to %d" id !last_read_epoch ep
          end;
          last_read_epoch := max !last_read_epoch ep;
          if ep = 1 && Ftable.path reference ~src:r.src ~dst:r.dst <> Some path then begin
            incr wrong_epoch1;
            check_failed "read %d: epoch-1 path differs from the reference tables" id
          end;
          match check_path g ~down_since ~sent:r.sent ~src:r.src ~dst:r.dst path with
          | Valid -> r.ok <- true
          | Dead _ -> incr dead
          | Malformed msg ->
            incr malformed;
            check_failed "read %d (%d -> %d): %s" id r.src r.dst msg
        end)
  in
  let handle_write s t =
    let j = parse s in
    if !awaiting_trace then begin
      awaiting_trace := false;
      (match Option.bind (Obs.Json.member "spans" j) Obs.Json.to_list with
      | Some l ->
        List.iter
          (fun sj -> Option.iter (fun s -> Hashtbl.replace spans s.id s) (of_span_json sj))
          l
      | None -> incr rpc_failures);
      idle_until := t +. p.gap_s
    end
    else
      match !ev_out with
      | None -> incr rpc_failures
      | Some sent ->
        ev_out := None;
        let ev = events.(!next_ev - 1) in
        let applied =
          Obs.Json.member "status" j = Some (Obs.Json.Str "ok")
          && Obs.Json.member "applied" j = Some (Obs.Json.Bool true)
        in
        if not applied then incr rpc_failures;
        let ep = Option.value (int_of "epoch" j) ~default:!epoch in
        let new_epoch = ep > !epoch in
        epoch := max ep !epoch;
        (match ev with
        | Fabric.Event.Link_down c when applied ->
          List.iter (fun ch -> down_since.(ch) <- t) (cable_channels g c)
        | _ -> ());
        ev_recs := { ev_sent = sent; ev_recv = t; new_epoch } :: !ev_recs;
        if traced then begin
          awaiting_trace := true;
          send wr (op "trace")
        end
        else idle_until := t +. p.gap_s
  in
  let writer_idle () = !ev_out = None && not !awaiting_trace in
  let episode_over () = !next_ev >= Array.length events && writer_idle () && now () >= !idle_until in
  while !reads_open || !outstanding > 0 do
    let t = now () in
    if !reads_open && episode_over () then begin
      reads_open := false;
      closed := t
    end;
    send_due ();
    if !reads_open && writer_idle () && !next_ev < Array.length events && t >= !idle_until then begin
      let ev = events.(!next_ev) in
      (match ev with
      | Fabric.Event.Link_up c -> List.iter (fun ch -> down_since.(ch) <- infinity) (cable_channels g c)
      | _ -> ());
      incr next_ev;
      ev_out := Some (now ());
      send wr
        (Obs.Json.Obj
           [ ("op", Obs.Json.Str "event"); ("event", Obs.Json.Str (Fabric.Event.to_string ev)) ])
    end;
    let t = now () in
    let timeout =
      if not !reads_open then 0.05
      else
        let wake = if writer_idle () then Float.min !next_due !idle_until else !next_due in
        Float.max 0.0 (wake -. t)
    in
    let writes = if pending rd then [ rd.fd ] else [] in
    (match Unix.select [ rd.fd; wr.fd ] writes [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if writable <> [] then flush rd;
      if List.mem rd.fd readable then begin
        let js = receive rd in
        let t = now () in
        List.iteri
          (fun i s ->
            handle_read s t;
            if i land 15 = 15 then send_due ())
          js
      end;
      if List.mem wr.fd readable then begin
        let js = receive wr in
        let t = now () in
        List.iter (fun s -> handle_write s t) js
      end);
    if (not !reads_open) && !outstanding > 0 && now () -. !idle_until > 10.0 then begin
      (* replies that never came: counted as failed reads *)
      rpc_failures := !rpc_failures + !outstanding;
      outstanding := 0
    end
  done;
  let stats =
    if traced then
      match Obs.Json.member "stats" (call wr (op "stats")) with
      | Some s -> Some s
      | None ->
        incr rpc_failures;
        None
    else None
  in
  let server_rss = peak_rss_mb (string_of_int pid) in
  ignore (call wr (op "shutdown"));
  finished := true;
  Unix.close rd.fd;
  Unix.close wr.fd;
  {
    setup;
    reads = Array.of_list (List.rev !reads);
    events = Array.of_list (List.rev !ev_recs);
    server_rss;
    malformed = !malformed;
    wrong_epoch1 = !wrong_epoch1;
    dead = !dead;
    max_backlog = !max_backlog;
    stats;
    spans = Hashtbl.fold (fun _ s acc -> s :: acc) spans [];
    rpc_failures = !rpc_failures;
    scheduled = Array.length events;
    closed = !closed;
  }

(* Reconvergence time of every event of one episode, with whether it
   failed: a success takes its reply time, a failure the time until the
   fabric next swapped in a certified epoch (a later event's reply), or
   until the episode stopped observing ([ended]: the last reply plus the
   gap). *)
let reconvergence events ~ended =
  let n = Array.length events in
  Array.mapi
    (fun i e ->
      if e.new_epoch then (e.ev_recv -. e.ev_sent, false)
      else begin
        let recovered = ref ended in
        (try
           for k = i + 1 to n - 1 do
             if events.(k).new_epoch then begin
               recovered := events.(k).ev_recv;
               raise Exit
             end
           done
         with Exit -> ());
        (!recovered -. e.ev_sent, true)
      end)
    events

(* Per event, the fastest of its replays, failed only when every replay
   failed: an event slowed by a busy host in one replay is measured by
   another. Ranked successes first, then failures, each by time. The
   run reports the mean and the 80th percentile of this ranking, not the
   median: when about half the events fail, the median sits where the
   successes meet the failures and jumps between them. *)
let best_of_replays per_episode =
  let n = List.fold_left (fun acc a -> min acc (Array.length a)) max_int per_episode in
  let best =
    Array.init n (fun i ->
        List.fold_left
          (fun (t, f) a -> (Float.min t (fst a.(i)), f && snd a.(i)))
          (infinity, true) per_episode)
  in
  let pick failed =
    sorted
      (Array.of_list (List.filter_map (fun (t, f) -> if f = failed then Some t else None) (Array.to_list best)))
  in
  let failures = pick true in
  (Array.append (pick false) failures, Array.length failures)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let stat_path path stats =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some stats) path

let counter_of stats section name =
  Option.value ~default:0.0 (Option.bind (stat_path [ section; name ] stats) (num "value"))

let timer_sum_of stats section name =
  Option.value ~default:0.0 (Option.bind (stat_path [ section; name ] stats) (num "sum_s"))

let timer_count_of stats section name =
  Option.value ~default:0.0 (Option.bind (stat_path [ section; name ] stats) (num "count"))

(* [between] runs after each replay, outside every timed window. *)
let run ?(between = fun () -> ()) p ~seed ~traced =
  let g = parse_spec p.spec in
  let reference =
    match Fabric.Manager.create g with
    | Ok m -> Fabric.Manager.tables m
    | Error msg -> failwith ("reference build: " ^ msg)
  in
  let rng = Rng.create seed in
  (* start-up only episodes first (more set-up samples), then the
     replays of the schedule *)
  let setups = List.init p.setups (fun i -> episode p ~g ~reference ~rng ~schedule:[] ~traced:false ~index:i) in
  let schedule = Fabric.Schedule.generate g ~rng:(Rng.create p.schedule) ~events:p.episode_events () in
  let eps =
    List.init p.replays (fun i ->
        let e = episode p ~g ~reference ~rng ~schedule ~traced ~index:(p.setups + i) in
        between ();
        e)
  in
  let all f = Array.concat (List.map f eps) in
  let reads = all (fun e -> e.reads) in
  let events = all (fun e -> e.events) in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 eps in
  (* Read latency from the due time, in ms, of the answered reads. Window
     k holds the reads due after the k-th event was sent, and so the
     stall that event caused; each window's reads come from the replay
     in which that event was answered fastest, as for reconvergence. *)
  let event_time e k =
    if k = 0 then 0.0
    else if k > Array.length e.events then infinity
    else e.events.(k - 1).ev_recv -. e.events.(k - 1).ev_sent
  in
  let best_replay k =
    List.fold_left (fun b e -> if event_time e k < event_time b k then e else b) (List.hd eps) eps
  in
  let best = Array.init (p.episode_events + 1) best_replay in
  let lat =
    Array.of_list
      (List.filter_map
         (fun r -> if Float.is_nan r.recv then None else Some (1000.0 *. (r.recv -. r.due)))
         (List.concat_map
            (fun e -> List.filter (fun r -> best.(r.window) == e) (Array.to_list e.reads))
            eps))
  in
  let late = Array.map (fun r -> 1000.0 *. (r.sent -. r.due)) reads in
  let nreads = Array.length reads and nevents = Array.length events in
  let failed_reads = Array.fold_left (fun acc r -> if r.ok then acc else acc + 1) 0 reads in
  let failed_events = Array.fold_left (fun acc e -> if e.new_epoch then acc else acc + 1) 0 events in
  let ranked_rc, failed_rc = best_of_replays (List.map (fun e -> reconvergence e.events ~ended:e.closed) eps) in
  let late_p99 = percentile 0.99 late in
  let max_backlog = List.fold_left (fun acc e -> max acc e.max_backlog) 0 eps in
  (* The generator kept its schedule when its p99 lateness stayed under
     ten read periods (pauses of a few ms that it recovers from are not
     falling behind), and the read backlog stayed bounded (a few seconds'
     worth at most). *)
  let healthy = late_p99 < 10_000.0 /. read_rate && float_of_int max_backlog < 3.0 *. read_rate in
  if not healthy then
    check_failed "load generator fell behind (late p99 %.3f ms, max backlog %d): run invalid" late_p99
      max_backlog;
  let rpc_failures = sum (fun e -> e.rpc_failures) in
  let correct =
    healthy && sum (fun e -> e.malformed) = 0 && sum (fun e -> e.wrong_epoch1) = 0
    && nevents = sum (fun e -> e.scheduled)
  in
  Printf.printf "churn %s: %d episodes, %d reads (%d failed, %d dead-channel), %d events (%d no new epoch)\n"
    p.spec (List.length eps) nreads failed_reads (sum (fun e -> e.dead)) nevents failed_events;
  let slow = Array.fold_left (fun acc l -> if l > 1.0 then acc + 1 else acc) 0 lat in
  Printf.printf "  route latency n=%d (%.1f%% over 1 ms), reconvergence n=%d (%d ranked as failures), \
                 setup n=%d, generator late p99 %.3f ms, max backlog %d\n"
    (Array.length lat) (100.0 *. frac slow (Array.length lat)) (Array.length ranked_rc) failed_rc
    (List.length setups + List.length eps) late_p99 max_backlog;
  let setup_s = median (Array.of_list (List.map (fun e -> e.setup) (setups @ eps))) in
  let rss = median (Array.of_list (List.map (fun e -> e.server_rss) eps)) in
  let metrics =
    if not traced then
      [
        metric "setup_s" "s" setup_s;
        metric "daemon_rss_mb" "MB" rss;
        metric "route_p50_ms" "ms" (percentile 0.5 lat);
        metric "route_p99_ms" "ms" (percentile 0.99 lat);
        metric "route_ok_frac" "ratio" (frac (nreads - failed_reads) nreads);
        metric "reconverge_mean_s" "s"
          (Array.fold_left ( +. ) 0.0 ranked_rc /. float_of_int (Array.length ranked_rc));
        metric "reconverge_p80_s" "s" (nearest_rank 0.8 ranked_rc);
        metric "event_ok_frac" "ratio" (frac (nevents - failed_events) nevents);
      ]
    else begin
      let stats = List.filter_map (fun e -> e.stats) eps in
      let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 stats in
      let mc name = total (fun s -> counter_of s "manager" name) in
      let per_event x = x /. float_of_int (max 1 nevents) in
      (* span ids restart with every daemon: resolve parents per episode *)
      let spans_total f name = List.fold_left (fun acc e -> acc +. f e.spans name) 0.0 eps in
      let stalled = Array.fold_left (fun acc r -> if r.stalled then acc + 1 else acc) 0 reads in
      [
        metric "fabric.incremental_repairs" "count" (mc "fabric.incremental_repairs");
        metric "fabric.full_recomputes" "count" (mc "fabric.full_recomputes");
        metric "fabric.fallbacks" "count" (mc "fabric.fallbacks");
        metric "fabric.verify_failures" "count" (mc "fabric.verify_failures");
        metric "fabric.dsts_repaired_frac" "ratio"
          (mc "fabric.dsts_repaired" /. Float.max 1.0 (mc "fabric.dsts_total"));
        metric "fabric.repair_s" "s" (per_event (total (fun s -> timer_sum_of s "manager" "fabric.repair")));
        metric "fabric.verify_s" "s" (per_event (total (fun s -> timer_sum_of s "manager" "fabric.verify")));
        metric "fabric.full_route_s" "s" (per_event (spans_total total_time "fabric.full_route"));
        metric "event.analysis.certify_s" "s"
          (per_event (total (fun s -> timer_sum_of s "process" "analysis.certify")));
        metric "event.analysis.existence_s" "s"
          (per_event (total (fun s -> timer_sum_of s "process" "analysis.existence")));
        metric "event.layers.assign_s" "s"
          (per_event (total (fun s -> timer_sum_of s "process" "layers.assign")));
        metric "service.route_s" "s"
          (total (fun s -> timer_sum_of s "service" "service.route_s")
          /. Float.max 1.0 (total (fun s -> timer_count_of s "service" "service.route_s")));
        metric "service.apply_s" "s" (per_event (total (fun s -> timer_sum_of s "service" "service.apply_s")));
        metric "service.queue_peak" "count"
          (List.fold_left (fun acc s -> Float.max acc (counter_of s "service" "service.queue_peak")) 0.0 stats);
        metric "service.busy_replies" "count" (total (fun s -> counter_of s "service" "service.busy_replies"));
        metric "reads.stalled_frac" "ratio" (frac stalled nreads);
        metric "span.fabric.apply_self_s" "s" (per_event (spans_total self_time "fabric.apply"));
        metric "event.span.fabric.try_swap_self_s" "s" (per_event (spans_total self_time "fabric.try_swap"));
        metric "span.fabric.full_route_self_s" "s" (per_event (spans_total self_time "fabric.full_route"));
        metric "span.fabric.repair_self_s" "s" (per_event (spans_total self_time "fabric.repair"));
        metric "loadgen.late_p99_ms" "ms" late_p99;
      ]
    end
  in
  { metrics; correct; attempted = nreads + nevents; failed = rpc_failures }

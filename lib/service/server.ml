(* The controller daemon: one select loop and one control domain. The
   loop owns every socket and serves reads inline from the view the
   control domain last published (zero-copy from the epoch's route
   arena); topology events are admission-queued and handed to the
   control domain one batch at a time, which owns the fabric manager
   and answers through a self-pipe. Writes are non-blocking with
   per-connection output buffers. See server.mli / DESIGN.md §14 for
   the contract. *)

let log_src = Logs.Src.create "service.server" ~doc:"fabric controller daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  addr : Proto.addr;
  queue_depth : int;
  max_frame : int;
  tick_s : float;
  trace_capacity : int;
  drain_s : float;
  manager : Fabric.Manager.config;
}

let default_config =
  {
    addr = Proto.Unix_path "fabric.sock";
    queue_depth = 64;
    max_frame = Proto.default_max_frame;
    tick_s = 0.02;
    trace_capacity = 512;
    drain_s = 5.0;
    manager = Fabric.Manager.default_config;
  }

(* ------------------------------------------------------------------ *)
(* Span ring: the [trace] op serves the most recent spans              *)
(* ------------------------------------------------------------------ *)

type ring = {
  spans : Obs.Trace.span option array;
  mutable next : int;
  lock : Mutex.t;
}

let ring_sink r =
  {
    Obs.Trace.emit =
      (fun s ->
        Mutex.lock r.lock;
        r.spans.(r.next mod Array.length r.spans) <- Some s;
        r.next <- r.next + 1;
        Mutex.unlock r.lock);
    flush = (fun () -> ());
  }

(* Most recent spans, oldest first, at most [limit]. *)
let ring_recent r limit =
  Mutex.lock r.lock;
  let cap = Array.length r.spans in
  let stored = min r.next cap in
  let take = min limit stored in
  let out = ref [] in
  for i = 0 to take - 1 do
    (* walk newest to oldest; consing leaves the result oldest-first *)
    match r.spans.((r.next - 1 - i) mod cap) with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  Mutex.unlock r.lock;
  !out

(* ------------------------------------------------------------------ *)
(* Connections: growable input/output byte buffers                     *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  mutable outbuf : Bytes.t;
  mutable outlen : int;
  mutable outpos : int;
  mutable closing : bool; (* close once the output buffer drains *)
  mutable dead : bool; (* remove at end of iteration *)
}

let grow_out c needed =
  let cap = Bytes.length c.outbuf in
  if c.outlen + needed > cap then begin
    let ncap = max (2 * cap) (c.outlen + needed) in
    let nb = Bytes.create ncap in
    Bytes.blit c.outbuf 0 nb 0 c.outlen;
    c.outbuf <- nb
  end

let grow_in c needed =
  let cap = Bytes.length c.inbuf in
  if c.inlen + needed > cap then begin
    let ncap = max (2 * cap) (c.inlen + needed) in
    let nb = Bytes.create ncap in
    Bytes.blit c.inbuf 0 nb 0 c.inlen;
    c.inbuf <- nb
  end

(* ------------------------------------------------------------------ *)
(* The control domain                                                  *)
(* ------------------------------------------------------------------ *)

(* What every read is served from: one installed epoch, the fabric as
   it stands (which a stale epoch may no longer match) and the epoch
   history. Published whole after every manager step, never mutated. *)
type view = {
  snap : Fabric.Epoch.snapshot;
  graph : Graph.t;
  history : Fabric.Epoch.entry list;
}

let view_of mgr =
  match Fabric.Manager.snapshot mgr with
  | Ok snap -> { snap; graph = Fabric.Manager.graph mgr; history = Fabric.Manager.epoch_history mgr }
  | Error e -> failwith ("Server: a created manager has no installed epoch: " ^ e)

(* A result computed on one domain, re-raised with its backtrace on the
   other. *)
type 'a guarded = ('a, exn * Printexc.raw_backtrace) result

let guard f = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())

let reraise = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* The mailbox between the loop and the control domain. The loop hands
   over the next batch only once the previous one was answered, so each
   direction holds at most one message. Every message towards the loop
   also writes a byte into the self-pipe, which sits in its select set. *)
type control = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable started : (Fabric.Manager.t * view Atomic.t, string) result guarded option;
  mutable job : Fabric.Event.t list option;
  mutable finished : Fabric.Manager.outcome list guarded option;
  quit : bool Atomic.t;  (* finish the current step, shut the manager down, exit *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let post ctl f =
  Mutex.lock ctl.lock;
  f ();
  Condition.broadcast ctl.cond;
  Mutex.unlock ctl.lock;
  (* a full pipe already holds a wake-up *)
  try ignore (Unix.single_write_substring ctl.wake_w "x" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Apply one batch step by step, publishing the view after each step so
   reads move on as soon as an epoch is installed. A quit request cuts
   the batch short after the step in flight. *)
let apply_batch ctl metrics mgr view events =
  let rec go acc = function
    | ev :: rest when not (Atomic.get ctl.quit) ->
      let o = Obs.Timer.time metrics.Metrics.apply_s (fun () -> Fabric.Manager.apply mgr ev) in
      Obs.Counter.incr metrics.Metrics.events_applied;
      Atomic.set view (view_of mgr);
      go (o :: acc) rest
    | _ -> List.rev acc
  in
  go [] events

(* The control domain's whole life: create the manager, apply every
   batch handed over, shut the manager down. An exception in a batch is
   posted to the loop (which re-raises it) and ends the domain. *)
let control_main ctl metrics ~config g () =
  match guard (fun () -> Fabric.Manager.create ~config g) with
  | Error e -> post ctl (fun () -> ctl.started <- Some (Error e))
  | Ok (Error msg) -> post ctl (fun () -> ctl.started <- Some (Ok (Error msg)))
  | Ok (Ok mgr) ->
    Fun.protect ~finally:(fun () -> Fabric.Manager.shutdown mgr) @@ fun () ->
    let view = Atomic.make (view_of mgr) in
    post ctl (fun () -> ctl.started <- Some (Ok (Ok (mgr, view))));
    let rec serve_batches () =
      Mutex.lock ctl.lock;
      while Option.is_none ctl.job && not (Atomic.get ctl.quit) do
        Condition.wait ctl.cond ctl.lock
      done;
      let job = ctl.job in
      ctl.job <- None;
      Mutex.unlock ctl.lock;
      match job with
      | None -> ()
      | Some events ->
        let r = guard (fun () -> apply_batch ctl metrics mgr view events) in
        post ctl (fun () -> ctl.finished <- Some r);
        if Result.is_ok r then serve_batches ()
    in
    serve_batches ()

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type admitted = conn * Fabric.Event.t * Obs.Json.t option

type t = {
  config : config;
  mgr : Fabric.Manager.t;  (* owned by the control domain; see [manager] *)
  fabric_metrics : Fabric.Metrics.t;
  view : view Atomic.t;
  ctl : control;
  domain : unit Domain.t;
  listen_fd : Unix.file_descr;
  actual_addr : Proto.addr;
  metrics : Metrics.t;
  ring : ring option;
  prev_obs_enabled : bool;
  pending : admitted Queue.t;
  mutable inflight : admitted list; (* the batch the control domain holds *)
  stop_flag : bool Atomic.t;
  scratch : Buffer.t; (* reply payloads; loop only *)
  read_chunk : Bytes.t;
  mutable conns : conn list;
  mutable stopping : bool;
  mutable drain_until : float;
  mutable running : bool;
  mutable next_cid : int;
}

let config t = t.config

let addr t = t.actual_addr

let manager t = t.mgr

let metrics t = t.metrics

let running t = t.running

let stop t = Atomic.set t.stop_flag true

(* Events admitted and not yet answered: queued plus in flight. *)
let admitted t = Queue.length t.pending + List.length t.inflight

let bind_listen addr =
  match addr with
  | Proto.Unix_path path ->
    if Sys.file_exists path then
      Error (Printf.sprintf "%s: path already exists (live or stale server?); remove it first" path)
    else begin
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128;
        Unix.set_nonblock fd;
        Ok (fd, addr)
      with e ->
        Unix.close fd;
        Error (Printexc.to_string e)
    end
  | Proto.Tcp (host, port) -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let inet =
        if host = "" || host = "*" then Unix.inet_addr_any
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      let actual_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      Ok (fd, Proto.Tcp (host, actual_port))
    with e ->
      Unix.close fd;
      Error (Printexc.to_string e))

(* Ask the control domain to finish its step and exit, and wait for it:
   it shuts the manager down on its way out. *)
let stop_control ctl domain =
  Atomic.set ctl.quit true;
  Mutex.lock ctl.lock;
  Condition.broadcast ctl.cond;
  Mutex.unlock ctl.lock;
  Fun.protect
    ~finally:(fun () ->
      Unix.close ctl.wake_r;
      Unix.close ctl.wake_w)
    (fun () -> Domain.join domain)

let create ?(config = default_config) g =
  if config.queue_depth < 1 then invalid_arg "Server.create: queue_depth < 1";
  if config.max_frame < 16 then invalid_arg "Server.create: max_frame too small";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let ctl =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      started = None;
      job = None;
      finished = None;
      quit = Atomic.make false;
      wake_r;
      wake_w;
    }
  in
  let metrics = Metrics.create () in
  let domain = Domain.spawn (control_main ctl metrics ~config:config.manager g) in
  Mutex.lock ctl.lock;
  while Option.is_none ctl.started do
    Condition.wait ctl.cond ctl.lock
  done;
  let started = Option.get ctl.started in
  Mutex.unlock ctl.lock;
  match started with
  | Error (e, bt) ->
    stop_control ctl domain;
    Printexc.raise_with_backtrace e bt
  | Ok (Error msg) ->
    stop_control ctl domain;
    Error ("initial routing failed: " ^ msg)
  | Ok (Ok (mgr, view)) -> (
    match bind_listen config.addr with
    | Error msg ->
      stop_control ctl domain;
      Error msg
    | Ok (listen_fd, actual_addr) ->
      let prev_obs_enabled = Obs.Control.enabled () in
      let ring =
        if config.trace_capacity > 0 then begin
          let r =
            { spans = Array.make config.trace_capacity None; next = 0; lock = Mutex.create () }
          in
          Obs.Control.set_enabled true;
          Obs.Trace.set_sink (Some (ring_sink r));
          Some r
        end
        else None
      in
      Ok
        {
          config;
          mgr;
          fabric_metrics = Fabric.Manager.metrics mgr;
          view;
          ctl;
          domain;
          listen_fd;
          actual_addr;
          metrics;
          ring;
          prev_obs_enabled;
          pending = Queue.create ();
          inflight = [];
          stop_flag = Atomic.make false;
          scratch = Buffer.create 1024;
          read_chunk = Bytes.create 4096;
          conns = [];
          stopping = false;
          drain_until = 0.0;
          running = true;
          next_cid = 1;
        })

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

(* Append one frame (header + [scratch] payload) to [conn]'s output. *)
let flush_scratch t conn =
  if not conn.dead then begin
    let len = Buffer.length t.scratch in
    grow_out conn (4 + len);
    Bytes.set_int32_be conn.outbuf conn.outlen (Int32.of_int len);
    Buffer.blit t.scratch 0 conn.outbuf (conn.outlen + 4) len;
    conn.outlen <- conn.outlen + 4 + len;
    Obs.Counter.incr ~n:len t.metrics.Metrics.bytes_out
  end

let add_id buf = function
  | None -> ()
  | Some id ->
    Buffer.add_string buf ",\"id\":";
    Obs.Json.to_buffer buf id

(* A reply built as an Obs.Json object: status + optional id + fields. *)
let send_obj t conn ~id ~status fields =
  Buffer.clear t.scratch;
  Buffer.add_string t.scratch "{\"status\":\"";
  Buffer.add_string t.scratch status;
  Buffer.add_char t.scratch '"';
  add_id t.scratch id;
  List.iter
    (fun (k, v) ->
      Buffer.add_string t.scratch ",\"";
      Buffer.add_string t.scratch (Obs.Json.escape k);
      Buffer.add_string t.scratch "\":";
      Obs.Json.to_buffer t.scratch v)
    fields;
  Buffer.add_char t.scratch '}';
  flush_scratch t conn

let send_ok t conn ~id fields = send_obj t conn ~id ~status:"ok" fields

let send_error t conn ~id msg = send_obj t conn ~id ~status:"error" [ ("error", Obs.Json.Str msg) ]

let send_busy t conn ~id =
  Obs.Counter.incr t.metrics.Metrics.busy_replies;
  send_obj t conn ~id ~status:"busy"
    [
      ("error", Obs.Json.Str "admission queue full, retry later");
      ("queue_depth", Obs.Json.Num (float_of_int (admitted t)));
    ]

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

(* The zero-copy read path: the reply's path array is emitted straight
   from the epoch snapshot's route arena — no Path.t is materialized,
   no slice is copied. The view is read once and is immutable, so the
   reply is internally consistent with exactly one certified epoch even
   while the control domain installs the next one. *)
let handle_route t conn ~id ~src ~dst =
  Obs.Counter.incr t.metrics.Metrics.route_queries;
  if t.inflight <> [] then Obs.Counter.incr t.metrics.Metrics.reads_during_apply;
  Obs.Timer.time t.metrics.Metrics.route_s @@ fun () ->
  let snap = (Atomic.get t.view).snap in
  let ft = snap.Fabric.Epoch.tables in
  let g = Ftable.graph ft in
  let terminal x = x >= 0 && x < Graph.num_nodes g && Graph.is_terminal g x in
  if not (terminal src) then begin
    Obs.Counter.incr t.metrics.Metrics.route_errors;
    send_error t conn ~id (Printf.sprintf "src %d is not a terminal of the current fabric" src)
  end
  else if not (terminal dst) then begin
    Obs.Counter.incr t.metrics.Metrics.route_errors;
    send_error t conn ~id (Printf.sprintf "dst %d is not a terminal of the current fabric" dst)
  end
  else begin
    let store = snap.Fabric.Epoch.store in
    let pair = Ftable.pair_id ft ~src ~dst in
    if src <> dst && not (Route_store.mem store ~pair) then begin
      Obs.Counter.incr t.metrics.Metrics.route_errors;
      send_error t conn ~id (Printf.sprintf "no route for %d -> %d" src dst)
    end
    else begin
      let buf = t.scratch in
      Buffer.clear buf;
      Buffer.add_string buf "{\"status\":\"ok\"";
      add_id buf id;
      Buffer.add_string buf ",\"epoch\":";
      Buffer.add_string buf (string_of_int snap.Fabric.Epoch.snap_epoch);
      Buffer.add_string buf ",\"layers\":";
      Buffer.add_string buf (string_of_int snap.Fabric.Epoch.num_layers);
      Buffer.add_string buf ",\"layer\":";
      Buffer.add_string buf (string_of_int (Ftable.layer ft ~src ~dst));
      let len = if src = dst then 0 else Route_store.length store ~pair in
      Buffer.add_string buf ",\"hops\":";
      Buffer.add_string buf (string_of_int len);
      Buffer.add_string buf ",\"path\":[";
      if len > 0 then begin
        let off = Route_store.offset store ~pair in
        let arena = Route_store.buffer store in
        for i = 0 to len - 1 do
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int arena.(off + i))
        done
      end;
      Buffer.add_string buf "]}";
      flush_scratch t conn
    end
  end

let epoch_of v = v.snap.Fabric.Epoch.snap_epoch

let epoch_json t = Obs.Json.Num (float_of_int (epoch_of (Atomic.get t.view)))

let stats_json t =
  Obs.Json.Obj
    [
      ("config", Dfsssp.Config.to_json t.config.manager);
      ("manager", Fabric.Metrics.to_json t.fabric_metrics);
      ("process", Obs.Registry.to_json (Obs.Registry.default ()));
      ("service", Metrics.to_json t.metrics);
    ]

let handle_stats t conn ~id =
  send_ok t conn ~id
    [
      ("epoch", epoch_json t);
      ("queue_depth", Obs.Json.Num (float_of_int (admitted t)));
      ("connections", Obs.Json.Num (float_of_int (List.length t.conns)));
      ("stats", stats_json t);
    ]

let handle_trace t conn ~id limit =
  match t.ring with
  | None -> send_error t conn ~id "tracing is disabled (trace_capacity = 0)"
  | Some r ->
    let limit = Option.value limit ~default:(Array.length r.spans) in
    let spans = ring_recent r limit in
    send_ok t conn ~id
      [
        ("count", Obs.Json.Num (float_of_int (List.length spans)));
        ("spans", Obs.Json.List (List.map Obs.Trace.span_to_json spans));
      ]

(* Lints the installed tables against the live fabric, so entries into
   channels that went down after the epoch was installed are reported. *)
let handle_analyze t conn ~id =
  let v = Atomic.get t.view in
  let report = Analysis.Analyzer.analyze ~graph:v.graph v.snap.Fabric.Epoch.tables in
  let s = Analysis.Analyzer.to_json ~target:"active-tables" report in
  match Obs.Json.of_string s with
  | Ok j ->
    send_ok t conn ~id
      [
        ("certified", Obs.Json.Bool (Analysis.Analyzer.ok report));
        ("epoch", Obs.Json.Num (float_of_int (epoch_of v)));
        ("report", j);
      ]
  | Error e -> send_error t conn ~id ("analyzer report did not round-trip: " ^ e)

let handle_epoch_info t conn ~id =
  let v = Atomic.get t.view in
  let entries =
    List.map
      (fun e ->
        Obs.Json.Obj
          [
            ("epoch", Obs.Json.Num (float_of_int e.Fabric.Epoch.epoch));
            ("label", Obs.Json.Str e.Fabric.Epoch.label);
            ("verify_ms", Obs.Json.Num (1000.0 *. e.Fabric.Epoch.verify_s));
          ])
      v.history
  in
  send_ok t conn ~id
    [
      ("epoch", Obs.Json.Num (float_of_int (epoch_of v)));
      ("history", Obs.Json.List entries);
    ]

let action_string = function
  | Fabric.Manager.Incremental _ -> "incremental"
  | Fabric.Manager.Full _ -> "full"
  | Fabric.Manager.Noop -> "noop"

(* Hand the whole admission queue to the control domain as one batch,
   unless it still holds the previous one. *)
let dispatch t =
  if t.inflight = [] && not (Queue.is_empty t.pending) then begin
    t.inflight <- List.of_seq (Queue.to_seq t.pending);
    Queue.clear t.pending;
    Obs.Counter.incr t.metrics.Metrics.event_batches;
    let events = List.map (fun (_, ev, _) -> ev) t.inflight in
    Mutex.lock t.ctl.lock;
    t.ctl.job <- Some events;
    Condition.broadcast t.ctl.cond;
    Mutex.unlock t.ctl.lock
  end

(* The self-pipe fired: take the finished batch, if any, and answer it —
   the replies land together at the batch boundary. An exception the
   control domain raised is re-raised here, on the loop. *)
let collect t =
  (try
     while Unix.read t.ctl.wake_r t.read_chunk 0 (Bytes.length t.read_chunk) > 0 do
       ()
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  Mutex.lock t.ctl.lock;
  let finished = t.ctl.finished in
  t.ctl.finished <- None;
  Mutex.unlock t.ctl.lock;
  match finished with
  | None -> ()
  | Some r ->
    let outcomes = reraise r in
    let batch = t.inflight in
    t.inflight <- [];
    let batch_size = List.length batch in
    List.iter2
      (fun (conn, ev, id) o ->
        if not conn.dead then
          send_ok t conn ~id
            [
              ("event", Obs.Json.Str (Fabric.Event.to_string ev));
              ("applied", Obs.Json.Bool o.Fabric.Manager.applied);
              ("action", Obs.Json.Str (action_string o.Fabric.Manager.action));
              ("fallback", Obs.Json.Bool o.Fabric.Manager.fallback);
              ("epoch", Obs.Json.Num (float_of_int o.Fabric.Manager.epoch));
              ("note", Obs.Json.Str o.Fabric.Manager.note);
              ("elapsed_ms", Obs.Json.Num (1000.0 *. o.Fabric.Manager.elapsed_s));
              ("batch_size", Obs.Json.Num (float_of_int batch_size));
            ])
      batch outcomes;
    Obs.Counter.set t.metrics.Metrics.queue_depth (admitted t)

let handle_request t conn payload =
  Obs.Counter.incr t.metrics.Metrics.requests;
  Obs.Counter.incr ~n:(String.length payload) t.metrics.Metrics.bytes_in;
  match Obs.Json.of_string payload with
  | Error e ->
    Obs.Counter.incr t.metrics.Metrics.bad_requests;
    send_error t conn ~id:None ("bad JSON: " ^ e)
  | Ok j -> (
    let id = Proto.request_id j in
    match Proto.request_of_json j with
    | Error e ->
      Obs.Counter.incr t.metrics.Metrics.bad_requests;
      send_error t conn ~id e
    | Ok req -> (
      match req with
      | Proto.Ping ->
        send_ok t conn ~id
          [
            ("server", Obs.Json.Str "fabric_service");
            ("proto", Obs.Json.Num (float_of_int Proto.version));
            ("epoch", epoch_json t);
          ]
      | _ when t.stopping ->
        (* the drain phase serves nothing new; admitted work still
           completes and flushes *)
        send_error t conn ~id "shutting down"
      | Proto.Route { src; dst } -> handle_route t conn ~id ~src ~dst
      | Proto.Event ev ->
        if admitted t >= t.config.queue_depth then send_busy t conn ~id
        else begin
          Queue.push (conn, ev, id) t.pending;
          Obs.Counter.incr t.metrics.Metrics.events_enqueued;
          let depth = admitted t in
          Obs.Counter.set t.metrics.Metrics.queue_depth depth;
          if depth > Obs.Counter.value t.metrics.Metrics.queue_peak then
            Obs.Counter.set t.metrics.Metrics.queue_peak depth
        end
      | Proto.Stats -> handle_stats t conn ~id
      | Proto.Trace limit -> handle_trace t conn ~id limit
      | Proto.Analyze -> handle_analyze t conn ~id
      | Proto.Epoch_info -> handle_epoch_info t conn ~id
      | Proto.Shutdown ->
        Log.info (fun m -> m "shutdown requested by client %d" conn.cid);
        send_ok t conn ~id [ ("epoch", epoch_json t) ];
        Atomic.set t.stop_flag true))

(* ------------------------------------------------------------------ *)
(* I/O                                                                 *)
(* ------------------------------------------------------------------ *)

(* Extract every complete frame from the connection's input buffer. A
   frame that oversteps [max_frame] is a protocol violation: reply,
   then close once the reply flushes (there is no way to resync). *)
let parse_frames t conn =
  let pos = ref 0 in
  let continue = ref true in
  while !continue && conn.inlen - !pos >= 4 do
    let len = Int32.to_int (Bytes.get_int32_be conn.inbuf !pos) in
    if len < 0 || len > t.config.max_frame then begin
      Obs.Counter.incr t.metrics.Metrics.bad_requests;
      send_error t conn ~id:None
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len t.config.max_frame);
      conn.closing <- true;
      conn.inlen <- 0;
      pos := 0;
      continue := false
    end
    else if conn.inlen - !pos >= 4 + len then begin
      let payload = Bytes.sub_string conn.inbuf (!pos + 4) len in
      pos := !pos + 4 + len;
      (try handle_request t conn payload
       with e ->
         Obs.Counter.incr t.metrics.Metrics.bad_requests;
         send_error t conn ~id:None ("internal error: " ^ Printexc.to_string e))
    end
    else continue := false
  done;
  if !pos > 0 then begin
    Bytes.blit conn.inbuf !pos conn.inbuf 0 (conn.inlen - !pos);
    conn.inlen <- conn.inlen - !pos
  end

let handle_readable t conn =
  let keep_reading = ref true in
  while !keep_reading && not conn.dead do
    match Unix.read conn.fd t.read_chunk 0 (Bytes.length t.read_chunk) with
    | 0 ->
      conn.dead <- true;
      keep_reading := false
    | k ->
      grow_in conn k;
      Bytes.blit t.read_chunk 0 conn.inbuf conn.inlen k;
      conn.inlen <- conn.inlen + k;
      if k < Bytes.length t.read_chunk then keep_reading := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      keep_reading := false
    | exception Unix.Unix_error (_, _, _) ->
      conn.dead <- true;
      keep_reading := false
  done;
  if not conn.dead then parse_frames t conn

let handle_writable conn =
  let keep = ref true in
  while !keep && conn.outpos < conn.outlen do
    match Unix.write conn.fd conn.outbuf conn.outpos (conn.outlen - conn.outpos) with
    | k -> conn.outpos <- conn.outpos + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> keep := false
    | exception Unix.Unix_error (_, _, _) ->
      conn.dead <- true;
      keep := false
  done;
  if conn.outpos >= conn.outlen then begin
    conn.outpos <- 0;
    conn.outlen <- 0;
    if conn.closing then conn.dead <- true
  end

let accept_clients t =
  let keep = ref true in
  while !keep do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ | Invalid_argument _ -> ());
      let c =
        {
          fd;
          cid = t.next_cid;
          inbuf = Bytes.create 4096;
          inlen = 0;
          outbuf = Bytes.create 4096;
          outlen = 0;
          outpos = 0;
          closing = false;
          dead = false;
        }
      in
      t.next_cid <- t.next_cid + 1;
      t.conns <- c :: t.conns;
      Obs.Counter.incr t.metrics.Metrics.connections
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> keep := false
    | exception Unix.Unix_error (_, _, _) -> keep := false
  done

let cull t =
  let dead, alive = List.partition (fun c -> c.dead) t.conns in
  List.iter
    (fun c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Obs.Counter.incr t.metrics.Metrics.disconnects)
    dead;
  t.conns <- alive

(* The control domain goes first: it finishes the step in flight and
   shuts the manager down before the join returns. *)
let teardown t =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
      t.conns <- [];
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (match t.actual_addr with
      | Proto.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Proto.Tcp _ -> ());
      (match t.ring with
      | Some _ ->
        Obs.Trace.set_sink None;
        Obs.Control.set_enabled t.prev_obs_enabled
      | None -> ());
      t.running <- false)
    (fun () -> stop_control t.ctl t.domain)

let serve t =
  Fun.protect ~finally:(fun () -> teardown t)
  @@ fun () ->
  let continue = ref true in
  while !continue do
    (* a stop request (signal handler, another thread, shutdown op)
       flips the loop into its bounded drain phase *)
    if Atomic.get t.stop_flag && not t.stopping then begin
      t.stopping <- true;
      t.drain_until <- Unix.gettimeofday () +. t.config.drain_s
    end;
    let reads =
      (t.ctl.wake_r :: (if t.stopping then [] else [ t.listen_fd ]))
      @ List.filter_map (fun c -> if c.dead then None else Some c.fd) t.conns
    in
    let writes =
      List.filter_map (fun c -> if (not c.dead) && c.outlen > c.outpos then Some c.fd else None) t.conns
    in
    (match Unix.select reads writes [] t.config.tick_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.mem t.ctl.wake_r readable then collect t;
      if List.mem t.listen_fd readable then accept_clients t;
      List.iter
        (fun c -> if (not c.dead) && List.mem c.fd readable then handle_readable t c)
        t.conns;
      (* events admitted while the control domain was busy leave as the
         next batch *)
      dispatch t;
      List.iter
        (fun c ->
          if (not c.dead) && (List.mem c.fd writable || c.outlen > c.outpos) then handle_writable c)
        t.conns);
    cull t;
    (* even during drain, admitted events complete and are answered *)
    if t.stopping && admitted t = 0 then begin
      let pending_out = List.exists (fun c -> c.outlen > c.outpos) t.conns in
      if (not pending_out) || Unix.gettimeofday () > t.drain_until then continue := false
    end
  done

(** The fabric controller daemon: a select-based event loop serving many
    concurrent clients over the {!Proto} wire protocol, and one control
    domain that owns the {!Fabric.Manager} and applies topology events
    off the serving path, the way a subnet manager computes new tables
    while the switches keep forwarding on the installed ones.

    Design (DESIGN.md §14):

    - {b Reads never wait for reconvergence.} After every manager step
      the control domain publishes an immutable view — the installed
      {!Fabric.Epoch.snapshot}, the live fabric and the epoch history —
      through one atomic. [route], [ping], [epoch] and [analyze] read
      that view once per request, so a reply comes from exactly one
      certified epoch, the latest installed one, never from a
      half-applied step. Route paths are emitted straight from the
      snapshot's {!Route_store} arena into the reply buffer.
    - {b Writes are admission-controlled and batched.} Topology events
      enter a bounded queue; [queue_depth] bounds the events admitted
      and not yet answered (queued plus in flight). Beyond it a client
      gets an explicit [{"status":"busy"}] reply {e immediately} — load
      is shed visibly, never by hanging or silent drops. Whenever the
      control domain is idle, the loop hands it everything queued as one
      batch; the domain applies it step by step and wakes the loop
      through a self-pipe, and the batch's replies go out together at
      the batch boundary. Once an event's reply has been sent, every
      read serves that event's epoch or a newer one.
    - {b Shutdown is graceful everywhere.} A [shutdown] request, {!stop}
      (signal-handler safe) or an exception — including one raised on
      the control domain, which is re-raised on the loop — all funnel
      into the same teardown: admitted events are still applied and
      answered, replies drained (bounded by [drain_s]); then the control
      domain finishes its step in flight, shuts the manager down
      ({!Fabric.Manager.shutdown}: worker domains released, trace sinks
      flushed) and is joined; sockets are closed and the Unix socket
      path unlinked. *)

type config = {
  addr : Proto.addr;
  queue_depth : int;
      (** admission bound: topology events admitted and not yet answered
          (queued plus in flight) *)
  max_frame : int;  (** refuse request frames larger than this *)
  tick_s : float;  (** select timeout: stop/drain latency bound *)
  trace_capacity : int;
      (** keep the most recent N trace spans in a ring served by the
          [trace] op; [0] leaves tracing untouched *)
  drain_s : float;  (** max seconds to flush replies at shutdown *)
  manager : Fabric.Manager.config;
}

(** [fabric.sock] in the working directory, queue depth 64, 1 MiB
    frames, 512-span ring, 20 ms tick, 5 s drain,
    {!Fabric.Manager.default_config}. *)
val default_config : config

type t

(** [create g] starts the control domain, which routes the initial
    fabric (exactly {!Fabric.Manager.create}), and binds the listening
    socket; clients may connect as soon as this returns, even before
    {!serve} starts accepting. [Error] if the fabric cannot be routed or
    the address cannot be bound (an existing socket path is refused, not
    clobbered — remove it explicitly). *)
val create : ?config:config -> Graph.t -> (t, string) result

val config : t -> config

(** The bound address; for [Tcp (host, 0)] the port is the one the
    kernel picked. *)
val addr : t -> Proto.addr

(** The manager the control domain owns. Inspect it only while no
    event is admitted and unanswered (before {!serve}, after every
    event's reply, or after {!serve} returned), and never mutate it. *)
val manager : t -> Fabric.Manager.t

val metrics : t -> Metrics.t

(** [serve t] runs the event loop until a [shutdown] request or {!stop},
    then tears down (control domain joined, manager shut down, sockets
    closed, path unlinked) — even when the loop body or the control
    domain raises. Call at most once. *)
val serve : t -> unit

(** Request a graceful stop from a signal handler or another thread; the
    loop notices within [tick_s]. Safe to call repeatedly. *)
val stop : t -> unit

(** [true] from {!create} until {!serve}'s teardown finished. *)
val running : t -> bool

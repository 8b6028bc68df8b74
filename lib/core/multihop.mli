(** The §5 complex configuration: a chain of switches (the paper cites a
    four-switch topology from [19]) carrying ~50 connections whose path
    lengths are split between 1, 2 and 3 trunk hops, in both directions.
    Used to confirm that ACK-compression and synchronization-mode
    phenomena survive outside the dumbbell. *)

type spec = {
  num_switches : int;
  connections : int;
  tau : float;
  buffer : int option;
  duration : float;
  warmup : float;
  seed : int;  (** start-time jitter *)
}

val default_spec : spec

type result = {
  spec : spec;
  chain : Net.Topology.chain;
  conns : Tcp.Connection.t array;
  (* Per trunk, per direction: index [i] is the trunk between switches
     [i] and [i+1]; [fst] carries right-going traffic. *)
  trunk_queues : (Trace.Queue_trace.t * Trace.Queue_trace.t) array;
  trunk_utils : (float * float) array;
  trunk_deps : (Trace.Dep_log.t * Trace.Dep_log.t) array;
  drops : Trace.Drop_log.t;
  t0 : float;
  t1 : float;
}

val run : spec -> result

(** Hop length (in trunks) of connection [i]'s path. *)
val hops : result -> int -> int

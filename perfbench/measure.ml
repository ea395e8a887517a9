(* One repetition of a workload, run in the calling process: every
   cluster built through Workload.Builder, judged by its oracles, and
   (for run-record clusters) exported as a run record. The timed mode
   attaches nothing; the traced mode attaches a Sim.Profiler to every
   engine and times the calls into each layer's public functions from
   outside, with [Profiler.measure]. *)

open Sim

type mode = Timed | Traced

type inject = {
  mismatch : bool;  (** perturb one deterministic count *)
  oracle_failure : bool;  (** feed the first run's oracles a failed 1SR and convergence *)
}

let no_inject = { mismatch = false; oracle_failure = false }

type bucket = { b_events : int; b_wall_s : float; b_alloc_w : float }

type rep = {
  wall_s : float;  (** whole workload: setup, loop, analysis, record *)
  setup_s : float;  (** summed over clusters: start to first simulated event *)
  loop_s : float;  (** summed engine-loop wall ([Runner.result.wall_s]) *)
  rss_mb : float;  (** peak resident memory of the process *)
  counts : (string * int) list;  (** deterministic counts *)
  latency : Summary.t;  (** committed response times, pooled *)
  throughputs : float list;  (** each cluster's Runner throughput, in run order *)
  det : (string * string) list;  (** every value the identity check compares *)
  oracle_failures : string list;  (** "label oracle: detail" *)
  checks : string list;  (** failed harness checks *)
  buckets : (string * bucket) list;  (** traced: profiler buckets, summed *)
  heap_peak_words : int;  (** traced: max major-heap words *)
  traced_wall_s : float;  (** traced: wall of the workload's own steps *)
  ref_s : float;  (** timed: the reference kernel's mean wall during the repetition; NaN when traced *)
}

(* Every time the harness measures leaves out the reference probe's own
   time (Reference). *)
let now = Reference.clock

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some kb)
        | _ -> scan ()
        | exception End_of_file -> None
      in
      let v = scan () in
      close_in ic;
      v
    with Sys_error _ | Scanf.Scan_failure _ -> None
  in
  match from_proc with
  | Some kb -> float_of_int kb /. 1024.
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let counter_sum (snap : Metrics.snapshot) name =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.value with
      | Metrics.Counter_v v when String.equal s.metric name -> acc + v
      | _ -> acc)
    0 snap

let store_counters =
  [
    "lock_waits_total";
    "deadlock_refusals_total";
    "lock_aborts_total";
    "view_changes_total";
    "consensus_decisions_total";
  ]

let measure profiler label f =
  match profiler with Some p -> Profiler.measure p ~label f | None -> f ()

let verdict_line label (v : Workload.Scenario.verdict) =
  Printf.sprintf "%s %s: %s" label v.oracle v.detail

(* The run record exactly as [replisim run --record] builds it: the
   probe census, then the normalized record of the finished run. *)
let run_record profiler (c : Workloads.cluster) factory result =
  let b = c.builder in
  let census =
    measure profiler "record:census" (fun () ->
        let p = Workload.Builder.probe ~n:b.n_replicas factory in
        let _, sound, s = Workload.Builder.probe_summary p in
        if sound && s.Msg_dag.replied then Some (s.Msg_dag.messages, s.Msg_dag.steps)
        else None)
  in
  let json =
    measure profiler "record:export" (fun () ->
        Workload.Run_record.to_json
          (Workload.Run_record.normalize
             (Workload.Run_record.of_run ~technique:c.entry.key ~config:[]
                ~seed:b.seed ~n_replicas:b.n_replicas ~n_clients:b.n_clients
                ~arrival:b.arrival ~spec:b.spec ?census result)))
  in
  (census, json)

(* The post-run analysis Runner performs inside [run_with_instance],
   re-invoked from outside under the profiler so each layer gets its own
   number: phase-span summaries, the 1SR check and convergence. *)
let reinvoke_analysis profiler (inst : Core.Technique.instance) network =
  measure profiler "span:phase_summary" (fun () ->
      let samples = Hashtbl.create 8 in
      List.iter
        (fun rid ->
          List.iter
            (fun (p, d) ->
              Hashtbl.replace samples p
                (d :: Option.value ~default:[] (Hashtbl.find_opt samples p)))
            (Core.Phase_span.durations inst.spans ~rid))
        (Core.Phase_span.rids inst.spans);
      Hashtbl.iter
        (fun _ ds -> ignore (Sys.opaque_identity (Workload.Stats.summarize ds)))
        samples);
  measure profiler "oracle:serializability" (fun () ->
      ignore (Sys.opaque_identity (Store.Serializability.check inst.history)));
  measure profiler "oracle:convergence" (fun () ->
      List.iter
        (fun group ->
          ignore
            (Sys.opaque_identity
               (Core.Convergence.converged
                  (List.filter_map
                     (fun r ->
                       if Network.alive network r then Some (inst.replica_store r)
                       else None)
                     group))))
        inst.groups)

type acc = {
  mutable a_wall : float;
  mutable a_setup : float;
  mutable a_loop : float;
  mutable a_traced_wall : float;
  mutable a_lat : float list;
  mutable a_tps : float list;  (** reversed *)
  a_counts : (string, int) Hashtbl.t;
  mutable a_verdicts : string list;  (** reversed *)
  mutable a_records : string list;  (** reversed *)
  mutable a_failures : string list;  (** reversed *)
  mutable a_checks : string list;  (** reversed *)
  a_buckets : (string, bucket) Hashtbl.t;
  mutable a_heap_peak : int;
}

let add acc k v =
  Hashtbl.replace acc.a_counts k
    (v + Option.value ~default:0 (Hashtbl.find_opt acc.a_counts k))

let check acc ok fmt =
  Printf.ksprintf (fun msg -> if not ok then acc.a_checks <- msg :: acc.a_checks) fmt

let run_cluster acc ~mode ~inject ~first (c : Workloads.cluster) =
  let factory =
    match Protocols.Registry.configure c.entry [] with
    | Ok (_, f) -> f
    | Error msg -> failwith msg
  in
  let profiler = match mode with Traced -> Some (Profiler.create ()) | Timed -> None in
  let net = ref None and setup_end = ref Float.nan in
  let submitted = ref 0 and lats = ref [] in
  (* Observe from outside the instance: the last submission before the
     first engine event closes set-up, and each committed reply yields
     the response time Runner also records. *)
  let observed network ~replicas ~clients =
    let inst = factory network ~replicas ~clients in
    net := Some network;
    let engine = Network.engine network in
    {
      inst with
      Core.Technique.submit =
        (fun ~client request reply_to ->
          if Engine.events_executed engine = 0 then setup_end := now ();
          incr submitted;
          let at = Engine.now engine in
          inst.submit ~client request (fun (reply : Core.Technique.reply) ->
              if reply.committed then
                lats := Simtime.to_ms (Simtime.sub reply.at at) :: !lats;
              reply_to reply));
    }
  in
  let t0 = now () in
  let probed = Reference.spent_s () in
  let result, inst =
    Workload.Builder.run_with_instance { c.builder with profiler } observed
  in
  let probed = Reference.spent_s () -. probed in
  let result =
    if inject.oracle_failure && first then
      { result with serializable = false; converged = false }
    else result
  in
  let verdicts =
    match c.scenario with
    | Some s ->
        measure profiler "oracle:scenario" (fun () ->
            Workload.Scenario.oracles ~key:c.entry.key c.entry.info s result inst)
    | None ->
        Workload.Scenario.
          [
            { oracle = "serializable"; ok = result.serializable; detail = "1SR check failed" };
            { oracle = "convergence"; ok = result.converged; detail = "replicas diverged" };
          ]
  in
  let record = if c.record then Some (run_record profiler c factory result) else None in
  let t1 = now () in
  let network = Option.get !net in
  let engine = Network.engine network in
  acc.a_wall <- acc.a_wall +. (t1 -. t0);
  acc.a_setup <- acc.a_setup +. (!setup_end -. t0);
  acc.a_loop <- acc.a_loop +. result.wall_s -. probed;
  acc.a_lat <- List.rev_append !lats acc.a_lat;
  acc.a_tps <- result.throughput :: acc.a_tps;
  let r = result in
  List.iter
    (fun (k, v) -> add acc k v)
    [
      ("runs", 1);
      ("runs_ok", if List.for_all (fun (v : Workload.Scenario.verdict) -> v.ok) verdicts then 1 else 0);
      ("submitted", !submitted);
      ("committed", r.committed);
      ("aborted", r.aborted);
      ("unanswered", r.unanswered);
      ("unaccounted", abs (!submitted - r.committed - r.aborted - r.unanswered));
      ("events", r.events);
      ("sent", r.messages);
      ("delivered", Network.messages_delivered network);
      ("dropped", r.dropped);
      ("queue_peak", Engine.queue_peak engine);
      ("spans", Span.count (Core.Phase_span.collector inst.spans));
      ("history", Store.History.length inst.history);
      ("resubmissions", r.resubmissions);
      ("latency_samples", List.length !lats);
    ];
  List.iter (fun k -> add acc k (counter_sum r.metrics k)) store_counters;
  List.iter
    (fun (v : Workload.Scenario.verdict) ->
      acc.a_verdicts <- Printf.sprintf "%s:%b" v.oracle v.ok :: acc.a_verdicts;
      if not v.ok then acc.a_failures <- verdict_line c.label v :: acc.a_failures)
    verdicts;
  check acc (not (Float.is_nan !setup_end)) "%s: no submission before the first event" c.label;
  check acc (r.unanswered >= 0) "%s: %d unanswered" c.label r.unanswered;
  check acc
    (List.length !lats = r.latency_ms.count)
    "%s: %d committed replies seen, Runner recorded %d" c.label
    (List.length !lats) r.latency_ms.count;
  check acc
    (Summary.summarize !lats = r.latency_ms)
    "%s: latency summary differs from Runner's" c.label;
  (match record with
  | None -> ()
  | Some (census, json) ->
      acc.a_records <- Digest.to_hex (Digest.string json) :: acc.a_records;
      check acc (census <> None) "%s: probe census unsound" c.label;
      check acc
        (match Workload.Run_record.of_string json with
        | Ok back -> String.equal (Workload.Run_record.to_json back) json
        | Error _ -> false)
        "%s: run record does not round-trip" c.label);
  match profiler with
  | None -> ()
  | Some p ->
      acc.a_traced_wall <- acc.a_traced_wall +. (t1 -. t0);
      reinvoke_analysis profiler inst network;
      let rep = Profiler.report p in
      acc.a_heap_peak <- max acc.a_heap_peak rep.p_heap_peak_words;
      List.iter
        (fun (row : Profiler.row) ->
          let b =
            Option.value
              ~default:{ b_events = 0; b_wall_s = 0.; b_alloc_w = 0. }
              (Hashtbl.find_opt acc.a_buckets row.r_label)
          in
          Hashtbl.replace acc.a_buckets row.r_label
            {
              b_events = b.b_events + row.r_events;
              b_wall_s = b.b_wall_s +. (row.r_wall_ms /. 1000.);
              b_alloc_w = b.b_alloc_w +. row.r_alloc_w;
            })
        rep.p_buckets

(* The first writes to a freshly forked child's heap pages are
   copy-on-write faults; take them here, before anything is timed. *)
let prefault () =
  Gc.compact ();
  for _ = 1 to 200_000 do
    ignore (Sys.opaque_identity (ref 0))
  done

let run ~mode ~inject ~clusters =
  prefault ();
  (* The profiler's own clock cannot leave the probe out, so the traced
     repetition runs unprobed and is rescaled by its timed partner. *)
  if mode = Timed then Reference.start ();
  let acc =
    {
      a_wall = 0.;
      a_setup = 0.;
      a_loop = 0.;
      a_traced_wall = 0.;
      a_lat = [];
      a_tps = [];
      a_counts = Hashtbl.create 32;
      a_verdicts = [];
      a_records = [];
      a_failures = [];
      a_checks = [];
      a_buckets = Hashtbl.create 32;
      a_heap_peak = 0;
    }
  in
  List.iteri (fun i c -> run_cluster acc ~mode ~inject ~first:(i = 0) c) clusters;
  if inject.mismatch then add acc "events" 1;
  let counts =
    List.sort compare (List.of_seq (Hashtbl.to_seq acc.a_counts))
  in
  let latency = Summary.summarize acc.a_lat in
  let digest l = Digest.to_hex (Digest.string (String.concat "\n" (List.rev l))) in
  let det =
    List.map (fun (k, v) -> (k, string_of_int v)) counts
    @ [
        ("latency_p50_ms", Printf.sprintf "%.17g" latency.p50);
        ("latency_p99_ms", Printf.sprintf "%.17g" latency.p99);
        ("throughputs", digest (List.map (Printf.sprintf "%.17g") acc.a_tps));
        ("verdicts", digest acc.a_verdicts);
        ("records", digest acc.a_records);
      ]
  in
  let ref_s = if mode = Timed then Reference.stop () else Float.nan in
  {
    wall_s = acc.a_wall;
    setup_s = acc.a_setup;
    loop_s = acc.a_loop;
    rss_mb = peak_rss_mb ();
    counts;
    latency;
    throughputs = List.rev acc.a_tps;
    det;
    oracle_failures = List.rev acc.a_failures;
    checks = List.rev acc.a_checks;
    buckets = List.sort compare (List.of_seq (Hashtbl.to_seq acc.a_buckets));
    heap_peak_words = acc.a_heap_peak;
    traced_wall_s = acc.a_traced_wall;
    ref_s;
  }

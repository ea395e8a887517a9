(* replibench — the replisim benchmark.

     replibench --workload NAME --seed N --seconds S --trace 0|1
                [--size full|tiny] [--inject mismatch|oracle-failure]

   Timed mode (--trace 0) warms up on the workload's first cluster,
   then repeats the workload until S seconds are spent and prints the
   nine end-to-end metrics as medians over the repetitions. Traced mode
   (--trace 1) alternates a timed and a profiled repetition for S
   seconds and prints the per-layer metrics. Each repetition runs in a
   child forked from one frozen fork server, so every repetition starts
   from the same process state and runs the schedule a fresh `replisim`
   invocation would run. Every reported time is rescaled by the speed of
   a reference kernel timed around the same repetition (Reference).
   Every repetition must report the same deterministic values; on a
   mismatch the command exits 3. Oracle failures are counted
   (oracle_pass_frac) and named, never fatal. The last stdout line is
   one JSON object: correct, attempted, failed and metrics. *)

let e2e_units =
  [
    ("txns_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_latency_p50_ms", "ms");
    ("sim_latency_p99_ms", "ms");
    ("sim_throughput_tps", "1/s");
    ("msgs_per_txn", "count");
    ("txn_commit_frac", "frac");
    ("oracle_pass_frac", "frac");
  ]

let layer_units =
  [
    ("span.phase_summary_s", "s");
    ("span.spans_per_txn", "count");
    ("record.export_s", "s");
    ("record.census_s", "s");
    ("engine.loop_s", "s");
    ("engine.events_per_s", "1/s");
    ("engine.events_per_txn", "count");
    ("engine.queue_peak", "count");
    ("engine.heap_peak_mwords", "Mwords");
    ("engine.timer_event_frac", "frac");
    ("network.alloc_words_per_delivery", "words");
    ("network.deliver_self_share", "frac");
    ("network.msgs_delivered_per_txn", "count");
    ("network.drop_frac", "frac");
    ("group.fd_events_per_txn", "count");
    ("group.view_changes", "count");
    ("group.consensus_decisions_per_txn", "count");
    ("store.lock_waits_per_txn", "count");
    ("store.deadlock_refusals_per_txn", "count");
    ("store.lock_aborts_per_txn", "count");
    ("store.history_records", "count");
    ("protocol.resubmissions_per_txn", "count");
    ("oracle.serializability_s", "s");
    ("oracle.convergence_s", "s");
    ("oracle.scenario_s", "s");
    ("bench.tracing_overhead_frac", "ratio");
  ]

exception Harness of string
exception Identity of string

let harness fmt = Printf.ksprintf (fun s -> raise (Harness s)) fmt

(* ---- repetitions forked from one frozen process --------------------- *)

(* A repetition is described by one byte to the fork server. *)
type job = { mode : Measure.mode; inject : Measure.inject; warm_up : bool }

let encode j =
  (if j.mode = Measure.Traced then 1 else 0)
  lor (if j.inject.mismatch then 2 else 0)
  lor (if j.inject.oracle_failure then 4 else 0)
  lor if j.warm_up then 8 else 0

let decode c =
  {
    mode = (if c land 1 <> 0 then Measure.Traced else Measure.Timed);
    inject = { mismatch = c land 2 <> 0; oracle_failure = c land 4 <> 0 };
    warm_up = c land 8 <> 0;
  }

type server = {
  req : Unix.file_descr;  (** job bytes to the server *)
  res : Unix.file_descr;  (** marshalled results from the children *)
  status : Unix.file_descr;  (** one byte per job: 0 if the child exited cleanly *)
  pid : int;
}

(* The fork server is forked once, before anything is measured, and
   never allocates between forks: every repetition is a child forked
   from the same frozen process state. The request-id counter is
   process-global, so only a fresh copy of one process state gives every
   repetition the schedule a fresh `replisim` invocation would run. The
   parent cannot be that state: the results it collects grow its heap,
   and a child forked from it would inherit them, so the child's heap
   and [peak_rss_mb] would grow with the repetition count. The child
   writes its marshalled result straight to the parent; the server
   reports how the child exited, one byte. *)
let start_server run =
  flush stdout;
  flush stderr;
  let req_rd, req_wr = Unix.pipe ~cloexec:true () in
  let res_rd, res_wr = Unix.pipe ~cloexec:true () in
  let st_rd, st_wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      List.iter Unix.close [ req_wr; res_rd; st_rd ];
      Gc.compact ();
      let byte = Bytes.create 1 in
      (* EOF on the request pipe: the parent has finished or died. *)
      while Unix.read req_rd byte 0 1 = 1 do
        let job = decode (Bytes.get_uint8 byte 0) in
        (match Unix.fork () with
        | 0 ->
            let v =
              try Ok (run job)
              with e -> Error (Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace ())
            in
            let oc = Unix.out_channel_of_descr res_wr in
            Marshal.to_channel oc (v : (Measure.rep, string) result) [];
            flush oc;
            Unix._exit 0
        | pid ->
            let ok = match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> 0 | _ -> 1 in
            Bytes.set_uint8 byte 0 ok;
            ignore (Unix.write st_wr byte 0 1))
      done;
      Unix._exit 0
  | pid ->
      List.iter Unix.close [ req_rd; res_wr; st_wr ];
      { req = req_wr; res = res_rd; status = st_rd; pid }

let stop_server s =
  Unix.close s.req;
  ignore (Unix.waitpid [] s.pid)

let readable fd = match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ -> true

let run_job s job =
  let byte = Bytes.make 1 (Char.chr (encode job)) in
  if Unix.write s.req byte 0 1 <> 1 then harness "fork server is gone";
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let drain () =
    while readable s.res do
      let n = Unix.read s.res chunk 0 (Bytes.length chunk) in
      Buffer.add_subbytes buf chunk 0 n
    done
  in
  (* Read the result while it arrives; once the status byte is there the
     child has exited, so what it wrote is all in the pipe. *)
  let rec wait () =
    match Unix.select [ s.res; s.status ] [] [] (-1.) with
    | r, _, _ when List.mem s.status r ->
        drain ();
        if Unix.read s.status byte 0 1 <> 1 then harness "fork server is gone";
        Bytes.get_uint8 byte 0
    | _ ->
        drain ();
        wait ()
  in
  let status = wait () in
  let v =
    if Buffer.length buf = 0 then Error "repetition ended without a result"
    else (Marshal.from_bytes (Buffer.to_bytes buf) 0 : (Measure.rep, string) result)
  in
  match (v, status) with
  | Ok rep, 0 -> rep
  | Error msg, _ -> harness "repetition failed: %s" msg
  | Ok _, _ -> harness "repetition process exited abnormally"

(* ---- statistics ----------------------------------------------------- *)

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let at p =
    (* linear interpolation between closest ranks *)
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  in
  (at 0.25, at 0.5, at 0.75)

let median xs =
  let _, m, _ = quartiles xs in
  m

let ratio a b = if b = 0. then 0. else a /. b
let count (rep : Measure.rep) k = Option.value ~default:0 (List.assoc_opt k rep.counts)
let fcount rep k = float_of_int (count rep k)

(* Every time the benchmark reports is rescaled to a machine of
   constant speed: divided by how much slower than nominal the
   reference kernel ran during the same timed repetition (Reference). *)
let speed (rep : Measure.rep) = rep.ref_s /. Reference.nominal_s
let scaled rep seconds = seconds /. speed rep
let txns_per_s (x : Measure.rep) = fcount x "submitted" /. scaled x x.wall_s

(* ---- the identity check --------------------------------------------- *)

let check_identity reps =
  match reps with
  | [] -> ()
  | (first_name, (first : Measure.rep)) :: rest ->
      List.iter
        (fun (name, (rep : Measure.rep)) ->
          if List.length first.det <> List.length rep.det then
            raise (Identity (Printf.sprintf "%s and %s report different fields" first_name name));
          List.iter2
            (fun (k, v0) (k', v) ->
              if k <> k' || v0 <> v then
                raise
                  (Identity
                     (Printf.sprintf "%s reports %s=%s but %s reports %s=%s"
                        first_name k v0 name k' v)))
            first.det rep.det)
        rest

(* ---- metrics -------------------------------------------------------- *)

let e2e_metrics (reps : Measure.rep list) =
  let r = List.hd reps in
  let submitted = fcount r "submitted" in
  [
    ("txns_per_s", median (List.map txns_per_s reps));
    ("setup_s", median (List.map (fun (x : Measure.rep) -> scaled x x.setup_s) reps));
    ("peak_rss_mb", median (List.map (fun (x : Measure.rep) -> x.rss_mb) reps));
    ("sim_latency_p50_ms", r.latency.p50);
    ("sim_latency_p99_ms", r.latency.p99);
    ("sim_throughput_tps", median r.throughputs);
    ("msgs_per_txn", ratio (fcount r "sent") (fcount r "committed" +. fcount r "aborted"));
    ("txn_commit_frac", ratio (fcount r "committed") submitted);
    ("oracle_pass_frac", ratio (fcount r "runs_ok") (fcount r "runs"));
  ]

let bucket (rep : Measure.rep) label =
  Option.value
    ~default:{ Measure.b_events = 0; b_wall_s = 0.; b_alloc_w = 0. }
    (List.assoc_opt label rep.buckets)

(* Buckets the harness opened with [Profiler.measure] around calls from
   outside the engine loop; every other bucket is an engine event label. *)
let outside_labels =
  [
    "span:phase_summary";
    "record:export";
    "record:census";
    "oracle:serializability";
    "oracle:convergence";
    "oracle:scenario";
  ]

let layer_metrics ~(timed : Measure.rep) ~(traced : Measure.rep) =
  let txns = fcount traced "submitted" in
  let per_txn k = ratio (fcount traced k) txns in
  let engine_buckets =
    List.filter (fun (l, _) -> not (List.mem l outside_labels)) traced.buckets
  in
  let sum f = List.fold_left (fun a (_, b) -> a +. f b) 0. engine_buckets in
  let events = sum (fun b -> float_of_int b.Measure.b_events) in
  let self_wall = sum (fun b -> b.Measure.b_wall_s) in
  let deliver = bucket traced "net:deliver" in
  let fd_events =
    List.fold_left
         (fun a (l, (b : Measure.bucket)) ->
           if String.starts_with ~prefix:"fd:" l then a +. float_of_int b.b_events
           else a)
         0. engine_buckets
  in
  let wall l = scaled timed (bucket traced l).b_wall_s in
  let loop_s = scaled timed timed.loop_s in
  [
    ("span.phase_summary_s", wall "span:phase_summary");
    ("span.spans_per_txn", per_txn "spans");
    ("record.export_s", wall "record:export");
    ("record.census_s", wall "record:census");
    ("engine.loop_s", loop_s);
    ("engine.events_per_s", ratio (fcount timed "events") loop_s);
    ("engine.events_per_txn", per_txn "events");
    ("engine.queue_peak", fcount traced "queue_peak");
    ("engine.heap_peak_mwords", float_of_int traced.heap_peak_words /. 1e6);
    ("engine.timer_event_frac", ratio (events -. float_of_int deliver.b_events) events);
    ("network.alloc_words_per_delivery", ratio deliver.b_alloc_w (float_of_int deliver.b_events));
    ("network.deliver_self_share", ratio deliver.b_wall_s self_wall);
    ("network.msgs_delivered_per_txn", per_txn "delivered");
    ("network.drop_frac", ratio (fcount traced "dropped") (fcount traced "sent"));
    ("group.fd_events_per_txn", ratio fd_events txns);
    ("group.view_changes", fcount traced "view_changes_total");
    ("group.consensus_decisions_per_txn", per_txn "consensus_decisions_total");
    ("store.lock_waits_per_txn", per_txn "lock_waits_total");
    ("store.deadlock_refusals_per_txn", per_txn "deadlock_refusals_total");
    ("store.lock_aborts_per_txn", per_txn "lock_aborts_total");
    ("store.history_records", fcount traced "history");
    ("protocol.resubmissions_per_txn", per_txn "resubmissions");
    ("oracle.serializability_s", wall "oracle:serializability");
    ("oracle.convergence_s", wall "oracle:convergence");
    ("oracle.scenario_s", wall "oracle:scenario");
    ("bench.tracing_overhead_frac", ratio traced.traced_wall_s timed.wall_s);
  ]

(* ---- report --------------------------------------------------------- *)

let machine () =
  let cpu =
    try
      let ic = open_in "/proc/cpuinfo" in
      let rec scan () =
        match input_line ic with
        | l when String.starts_with ~prefix:"model name" l ->
            String.trim (List.nth (String.split_on_char ':' l) 1)
        | _ -> scan ()
        | exception End_of_file -> "unknown"
      in
      let v = scan () in
      close_in ic;
      v
    with Sys_error _ -> "unknown"
  in
  Printf.sprintf "cpu=%S nproc=%d ocaml=%s" cpu
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let print_spread name unit values =
  let q1, m, q3 = quartiles values in
  Printf.printf "  %-34s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n" name m unit q1 q3
    (List.length values)

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else harness "metric %s is not a finite number" name

let json_result ~correct ~attempted ~failed units metrics =
  let body =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number name v) (List.assoc name units))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

(* ---- main ----------------------------------------------------------- *)

let usage =
  "replibench --workload NAME --seed N --seconds S --trace 0|1 [--size \
   full|tiny] [--inject mismatch|oracle-failure]"

let () =
  Printexc.record_backtrace true;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) and size = ref Workloads.Full in
  let inject = ref Measure.no_inject in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 timed end-to-end or traced per-layer run");
      ( "--size",
        Arg.Symbol
          ( [ "full"; "tiny" ],
            fun s -> size := if s = "tiny" then Workloads.Tiny else Workloads.Full ),
        " workload size (tiny is for the self-test)" );
      ( "--inject",
        Arg.Symbol
          ( [ "mismatch"; "oracle-failure" ],
            function
            | "mismatch" -> inject := { !inject with mismatch = true }
            | _ -> inject := { !inject with oracle_failure = true } ),
        " self-test fault injection" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail code fmt = Printf.ksprintf (fun s -> prerr_endline ("replibench: " ^ s); exit code) fmt in
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        fail 2 "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  if !seed < 0 then fail 2 "--seed must be given and non-negative";
  if !seconds <= 0. then fail 2 "--seconds must be positive";
  let traced = match !trace with 0 -> false | 1 -> true | _ -> fail 2 "--trace must be 0 or 1" in
  let clusters = w.clusters ~seed:!seed !size in
  Printf.printf "replibench: workload=%s seed=%d seconds=%g trace=%d clusters=%d\n"
    w.name !seed !seconds !trace (List.length clusters);
  Printf.printf "machine   : %s\n" (machine ());
  let server =
    start_server (fun j ->
        let clusters = if j.warm_up then [ List.hd clusters ] else clusters in
        Measure.run ~mode:j.mode ~inject:j.inject ~clusters)
  in
  at_exit (fun () -> stop_server server);
  (* The self-test's count perturbation hits the second measured run
     only, so that the identity check has something to disagree with. *)
  let runs = ref 0 in
  let rep mode =
    let inject = if !runs = 1 then !inject else { !inject with mismatch = false } in
    incr runs;
    run_job server { mode; inject; warm_up = false }
  in
  try
    (* Warm-up: the first cluster alone, so caches, the CPU clock and the
       page cache settle before any repetition is timed. *)
    ignore (run_job server { mode = Timed; inject = Measure.no_inject; warm_up = true });
    (* Rounds continue while the next one, at the median round length so
       far, still fits in --seconds, and at least [min_rounds] times. *)
    let t_start = Unix.gettimeofday () in
    let elapsed = ref [] in
    let go min_rounds =
      List.length !elapsed < min_rounds
      || Unix.gettimeofday () -. t_start +. median !elapsed <= !seconds
    in
    let round f =
      let t = Unix.gettimeofday () in
      let r = f () in
      elapsed := (Unix.gettimeofday () -. t) :: !elapsed;
      r
    in
    let identity = ref [] and measured = ref [] in
    let note name (r : Measure.rep) =
      identity := (name, r) :: !identity;
      check_identity (List.rev !identity)
    in
    let units, metrics, reps =
      if not traced then begin
        while go 3 do
          let r = round (fun () -> rep Measure.Timed) in
          note (Printf.sprintf "repetition %d" (List.length !identity + 1)) r;
          measured := r :: !measured
        done;
        let reps = List.rev !measured in
        Printf.printf "repetitions: 1 warm-up + %d measured, fork + Gc.compact before each\n"
          (List.length reps);
        let each f = List.map f reps in
        print_spread "txns_per_s" "1/s" (each txns_per_s);
        print_spread "setup_s" "s" (each (fun x -> scaled x x.setup_s));
        print_spread "peak_rss_mb" "MB" (each (fun x -> x.rss_mb));
        print_spread "wall_s (scaled)" "s" (each (fun x -> scaled x x.wall_s));
        print_spread "wall_s (as measured)" "s" (each (fun x -> x.wall_s));
        print_spread "setup_s (as measured)" "s" (each (fun x -> x.setup_s));
        print_spread "engine loop_s (as measured)" "s" (each (fun x -> x.loop_s));
        print_spread "reference kernel_s (mean)" "s" (each (fun x -> x.ref_s));
        Printf.printf "  repetition walls (s): %s\n"
          (String.concat " " (List.map (fun (x : Measure.rep) -> Printf.sprintf "%.4f" x.wall_s) reps));
        let r = List.hd reps in
        Printf.printf "  sim latency samples: %d committed (p50 and p99 over all of them)\n"
          r.latency.count;
        (e2e_units, e2e_metrics reps, reps)
      end
      else begin
        let pairs = ref [] in
        while go 1 do
          let t, tr =
            round (fun () ->
                let t = rep Measure.Timed in
                (t, rep Measure.Traced))
          in
          let i = List.length !pairs + 1 in
          note (Printf.sprintf "timed run %d" i) t;
          note (Printf.sprintf "traced run %d" i) tr;
          pairs := layer_metrics ~timed:t ~traced:tr :: !pairs;
          measured := tr :: t :: !measured
        done;
        Printf.printf "pairs     : 1 warm-up + %d timed/traced pairs\n" (List.length !pairs);
        let metrics =
          List.map
            (fun (name, _) ->
              let values = List.map (List.assoc name) !pairs in
              print_spread name (List.assoc name layer_units) values;
              (name, median values))
            layer_units
        in
        (layer_units, metrics, List.rev !measured)
      end
    in
    let r = List.hd reps in
    Printf.printf
      "identity  : %d runs agree: events=%d msgs=%d committed=%d aborted=%d unanswered=%d runs=%d\n"
      (List.length reps) (count r "events") (count r "sent") (count r "committed")
      (count r "aborted") (count r "unanswered") (count r "runs");
    Printf.printf "oracles   : %d of %d runs pass\n" (count r "runs_ok") (count r "runs");
    List.iter (Printf.printf "  oracle failure: %s\n") r.oracle_failures;
    let checks = List.sort_uniq compare (List.concat_map (fun (x : Measure.rep) -> x.checks) reps) in
    List.iter (Printf.printf "  harness check failed: %s\n") checks;
    let attempted = List.fold_left (fun a x -> a + count x "submitted") 0 reps in
    let failed = List.fold_left (fun a x -> a + count x "unaccounted") 0 reps in
    let correct = checks = [] && failed = 0 in
    print_endline (json_result ~correct ~attempted ~failed units metrics)
  with
  | Harness msg -> fail 2 "harness error: %s" msg
  | Identity msg -> fail 3 "schedule identity broken: %s" msg

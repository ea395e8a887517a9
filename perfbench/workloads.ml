(* The four benchmark workloads, as lists of clusters built through
   Workload.Builder — the construction path every replisim subcommand
   uses. Each workload loads a different layer; README.md records why
   each was chosen and which end-to-end metric its layers should move. *)

type size = Full | Tiny

type cluster = {
  label : string;  (** technique, plus scenario and seed for a campaign *)
  entry : Protocols.Registry.entry;
  builder : Workload.Builder.t;
  scenario : Workload.Scenario.t option;
      (** judged by [Scenario.oracles] when set; by 1SR + convergence
          otherwise *)
  record : bool;  (** export the run record and probe census *)
}

type t = { name : string; clusters : seed:int -> size -> cluster list }

let entry key =
  match Protocols.Registry.find_res key with
  | Ok e -> e
  | Error msg -> invalid_arg msg

(* The [k] cluster seeds of workload seed [seed]. Runner derives each
   client's generator seed as cluster seed + client id, so cluster seeds
   are spaced 100 apart: no two clusters, of this workload seed or any
   other, share a request stream. Averaging over [k] independent
   clusters keeps the deterministic metrics' seed-to-seed spread small. *)
let sub_seeds ~k seed = List.init k (fun i -> 100 * ((k * seed) + i))

let clusters_of ~key ~record ~k ~seed make =
  List.map
    (fun seed ->
      {
        label = Printf.sprintf "%s seed=%d" key seed;
        entry = entry key;
        builder = make ~seed;
        scenario = None;
        record;
      })
    (sub_seeds ~k seed)

(* `replisim run -t lazy-primary -n 8 --clients 4 --txns 250 --record`:
   span recording and every post-run analysis on, then the run record
   and the probe census. *)
let run_record_lazy8 =
  {
    name = "run-record-lazy8";
    clusters =
      (fun ~seed size ->
        let txns = match size with Full -> 250 | Tiny -> 10 in
        clusters_of ~key:"lazy-primary" ~record:true ~k:4 ~seed (fun ~seed ->
            Workload.Builder.make ~seed ~replicas:8 ~clients:4
              ~spec:(Workload.Builder.spec ~updates:0.5 ~txns ())
              ()));
  }

(* n=32 lazy-primary with spans off: rbcast's all-to-all relays make the
   engine's delivery path nearly all of the work. A cluster's heap grows
   with its transactions (about 0.1 MB each), so the workload runs many
   short clusters rather than a few long ones, which keeps the peak heap
   near 35 MB. A seed fixes the update mix, and updates carry nearly all
   the messages, so 2400 transactions per repetition keep the seed's
   share of the wall-time spread small. *)
let fanout_lazy32 =
  {
    name = "fanout-lazy32";
    clusters =
      (fun ~seed size ->
        let txns = match size with Full -> 50 | Tiny -> 2 in
        clusters_of ~key:"lazy-primary" ~record:false ~k:12 ~seed (fun ~seed ->
            Workload.Builder.make ~seed ~replicas:32 ~clients:4
              ~spec:(Workload.Builder.spec ~updates:0.5 ~txns ())
              ~tracing:false ()));
  }

(* Open-loop Poisson clients over a zipf-skewed keyspace: lock waits,
   deadlock refusals and aborted work in the store's lock table. *)
let contended_locking =
  {
    name = "contended-locking";
    clusters =
      (fun ~seed size ->
        let txns = match size with Full -> 125 | Tiny -> 10 in
        clusters_of ~key:"eager-ue-locking" ~record:false ~k:16 ~seed
          (fun ~seed ->
            Workload.Builder.make ~seed ~replicas:3 ~clients:4
              ~arrival:(`Poisson 200.)
              ~spec:
                (Workload.Builder.spec ~ops:2 ~keys:100 ~skew:0.9 ~updates:0.5
                   ~txns ())
              ~tracing:false ()));
  }

(* `replisim campaign` over every technique and built-in scenario, with
   the seed set fixed by the workload seed alone (never by a verdict):
   many small clusters, periodic failure-detector and polling timers,
   recovery, and the Scenario oracles. The cluster shape and the
   per-cluster spec are those of [Scenario.run_one]; the order is that
   of [Scenario.run_campaign]. *)
let campaign_faults =
  {
    name = "campaign-faults";
    clusters =
      (fun ~seed size ->
        let scenarios, entries, seeds, spec =
          match size with
          | Full ->
              ( Workload.Scenario.builtins,
                Protocols.Registry.all,
                sub_seeds ~k:2 seed,
                Workload.Scenario.default_spec )
          | Tiny ->
              ( List.filteri (fun i _ -> i < 2) Workload.Scenario.builtins,
                List.filteri (fun i _ -> i < 2) Protocols.Registry.all,
                [ seed ],
                { Workload.Scenario.default_spec with txns_per_client = 5 } )
        in
        List.concat_map
          (fun (scenario : Workload.Scenario.t) ->
            List.concat_map
              (fun (e : Protocols.Registry.entry) ->
                List.map
                  (fun seed ->
                    {
                      label =
                        Printf.sprintf "%s %s seed=%d" e.key scenario.name seed;
                      entry = e;
                      builder =
                        Workload.Builder.make ~seed ~replicas:3 ~clients:2
                          ~spec ~scenario ();
                      scenario = Some scenario;
                      record = false;
                    })
                  seeds)
              entries)
          scenarios);
  }

let all = [ run_record_lazy8; fanout_lazy32; contended_locking; campaign_faults ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

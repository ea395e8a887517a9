(* A reference probe that measures how fast the machine runs while a
   repetition runs, so the repetition's times can be rescaled to a
   machine of constant speed.

   On a shared virtual machine the whole machine runs 10–60 % slower or
   faster for minutes at a time, and it switches speed within a second.
   So the probe runs all through the repetition: an interval timer
   fires every [interval_s] and its signal handler runs a small fixed
   kernel and times it. The kernel does what the simulator does most —
   allocate small blocks, update a hash table and a balanced map, walk
   lists — because a kernel of dependent loads or arithmetic tracked the
   drift much worse. It uses the standard library only, so no change to
   the replisim libraries changes the kernel itself (README.md gives the
   limits). The time the probe takes is kept out of every measured time
   by [clock]. *)

(* The unboxed primitive behind [Unix.gettimeofday], so that reading the
   clock allocates nothing. *)
external wall : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

let interval_s = 0.02

(* The kernel's wall on the machine the benchmark was calibrated on
   (2-vCPU Xeon VM, OCaml 5.1.1): a repetition during which the kernel
   takes [nominal_s] on average keeps its measured times. *)
let nominal_s = 0.0005

module Int_map = Map.Make (Int)

let kernel () =
  let x = ref 88172645463325252 in
  let next () =
    (* xorshift64 *)
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    v land max_int
  in
  let h = Hashtbl.create 64 in
  let m = ref Int_map.empty in
  let acc = ref 0 in
  for i = 1 to 600 do
    let k = next () mod 400 in
    Hashtbl.replace h k (i :: Option.value ~default:[] (Hashtbl.find_opt h k));
    m := Int_map.add (next () mod 1000) (string_of_int i) !m;
    (match Int_map.find_first_opt (fun key -> key >= k) !m with
    | Some (_, s) -> acc := !acc + String.length s
    | None -> ());
    if i mod 3 = 0 then m := Int_map.remove (next () mod 1000) !m
  done;
  Sys.opaque_identity !acc

(* Summed probe wall since [start]; a float array stores it unboxed. *)
let spent = Float.Array.make 1 0.
let probes = ref 0

let probe () =
  let t = wall () in
  ignore (kernel ());
  Float.Array.set spent 0 (Float.Array.get spent 0 +. (wall () -. t));
  incr probes

let spent_s () = Float.Array.get spent 0

(* Wall-clock seconds with the probes' time taken out. *)
let clock () = wall () -. spent_s ()

let set_timer s =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

let start () =
  Float.Array.set spent 0 0.;
  probes := 0;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
  set_timer interval_s

(* Stops the probe and returns the kernel's mean wall over the
   repetition. A repetition too short for the timer to fire is probed
   once at its end. *)
let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore;
  if !probes = 0 then probe ();
  Float.Array.get spent 0 /. float_of_int !probes

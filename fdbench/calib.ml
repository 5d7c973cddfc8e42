(* Host-speed calibration.  The speed of a shared 2-core VM drifts by up
   to 2.5x over tens of seconds (co-tenant load), which swamps any change
   a run could show.  A fixed kernel, written here and sharing no code
   with the tool, is timed every half second of a run; host times are
   reported in calibrated units: measured time x [reference_s] / (the
   run's median kernel time).  A calibrated second is a second on a host
   that runs the kernel in [reference_s].  (Scaling each job by the
   kernel runs nearest to it measured no steadier.)

   The kernel hashes, sorts and allocates short-lived lists, the mix of
   the tool's own inner loops.  It runs right after a full major
   collection, as every job does, so the heap is in the same state each
   time; of the kernels tried, it tracked the jobs' drift most closely
   (15-second medians of job time / kernel time within 2%). *)

let reference_s = 0.008

let work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) (float_of_int i)
  done;
  let a = Array.init 12_000 (fun i -> float_of_int (i * 7919 mod 12_007)) in
  Array.sort Float.compare a;
  let l = List.init 30_000 (fun i -> (i, Some i)) in
  let s = List.fold_left (fun acc (i, _) -> acc + i) 0 l in
  ignore (Sys.opaque_identity (s, Hashtbl.length h, a.(0)))

(* One kernel time, seconds, from a collected heap. *)
let sample () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0

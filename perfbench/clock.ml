(* Seconds on the monotonic clock, with nanosecond resolution:
   gettimeofday's microseconds are too coarse for per-layer times of a
   few microseconds and would quantize the probe percentiles. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

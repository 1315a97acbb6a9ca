(* A fixed piece of work that runs no fgv code: hashing, allocation and
   sorting, the kinds of work a compile does.  The machine this
   benchmark was tuned on (2 shared vCPUs) drifts between speed states
   for tens of seconds at a time, which moves every latency in a run
   alike.  Timing this reference between requests and dividing by its
   median cancels much of that drift: over ten cold-compile seeds the
   p50 round trip spread 24% in ms and 10% in reference units.  Since
   the reference runs no fgv code, a change to fgv moves the quotient
   exactly as it moves the milliseconds. *)

let work () =
  let h = Hashtbl.create 16 in
  for i = 1 to 1500 do
    Hashtbl.replace h (i * 7919 mod 10007) (string_of_int i)
  done;
  let l = List.init 2000 (fun i -> i * 7919 mod 10007) in
  ignore (Sys.opaque_identity (List.sort compare l, h))

(* Seconds one run of [work] takes. *)
let time () : float =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0

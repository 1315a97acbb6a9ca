(* Log-bucketed latency histograms.  See the .mli for the contract.

   Bucket scheme: octaves [2^e, 2^(e+1)) for e in [e_min, e_max), each
   split into [sub_buckets] linear sub-buckets
   [2^e·(1+s/8), 2^e·(1+(s+1)/8)).  With e_min = -30 and e_max = 10
   that spans ~0.93 ns .. 1024 s in 40·8 = 320 regular buckets, plus
   one underflow bucket [0, 2^-30) at index 0 and one overflow bucket
   [2^10, ∞) at the end — 322 ints per histogram.

   Indexing reads the IEEE fields: for v > 0, v = 1.f·2^oct, where oct
   is the unbiased exponent and the sub-bucket is the top three bits of
   f (= ⌊(1.f - 1)·8⌋) — a few integer ops, no table walk, no boxing,
   and a pure function of the sample's bits (the determinism contract
   rests on this).  Subnormals fall below e_min and infinity above
   e_max.  Bounds are rebuilt with [ldexp], hence exact binary floats
   that survive %.17g round-trips.

   There is intentionally NO running sum of samples: float addition is
   order-sensitive, and a sum would break the merge-associativity
   property test_obslog fuzzes.  Min/max are kept instead (exact
   sample values; min and max of a multiset are order-free).  They live
   in a flat float array, so a new extreme is stored in place: with the
   bit-level indexing, recording a sample never allocates. *)

let sub_bits = 3
let sub_buckets = 1 lsl sub_bits
let e_min = -30
let e_max = 10
let n_regular = (e_max - e_min) * sub_buckets
let n_buckets = n_regular + 2 (* + underflow + overflow *)
let overflow = n_buckets - 1

type t = {
  counts : int array; (* length n_buckets *)
  mutable total : int;
  ext : Float.Array.t; (* [| min; max |], nan when empty *)
}

let create () =
  { counts = Array.make n_buckets 0; total = 0; ext = Float.Array.make 2 nan }

let copy h =
  { counts = Array.copy h.counts; total = h.total; ext = Float.Array.copy h.ext }

let min_sample h = Float.Array.get h.ext 0
let max_sample h = Float.Array.get h.ext 1

let index_of v =
  if not (v > 0.0) then 0 (* ≤ 0, NaN *)
  else
    let bits = Int64.bits_of_float v in
    let oct = Int64.to_int (Int64.shift_right_logical bits 52) - 1023 in
    if oct < e_min then 0
    else if oct >= e_max then overflow
    else
      let sub =
        Int64.to_int (Int64.shift_right_logical bits (52 - sub_bits))
        land (sub_buckets - 1)
      in
      1 + ((oct - e_min) * sub_buckets) + sub

(* Inverse of [index_of] for regular buckets: exact binary bounds. *)
let bucket_lo i =
  if i = 0 then 0.0
  else if i = overflow then Float.ldexp 1.0 e_max
  else
    let r = i - 1 in
    let oct = e_min + (r / sub_buckets) and sub = r mod sub_buckets in
    Float.ldexp (1.0 +. (float_of_int sub /. float_of_int sub_buckets)) oct

let bucket_hi i = if i = overflow then infinity else bucket_lo (i + 1)

let record h v =
  let i = index_of v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.total <- h.total + 1;
  (* NaN samples count but do not disturb min/max. *)
  if Float.is_nan v then ()
  else begin
    let mn = Float.Array.get h.ext 0 and mx = Float.Array.get h.ext 1 in
    if Float.is_nan mn || v < mn then Float.Array.set h.ext 0 v;
    if Float.is_nan mx || v > mx then Float.Array.set h.ext 1 v
  end

let count h = h.total

let merge_into ~into src =
  for i = 0 to n_buckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.total <- into.total + src.total;
  let smn = min_sample src and smx = max_sample src in
  let imn = min_sample into and imx = max_sample into in
  if not (Float.is_nan smn) then
    if Float.is_nan imn || smn < imn then Float.Array.set into.ext 0 smn;
  if not (Float.is_nan smx) then
    if Float.is_nan imx || smx > imx then Float.Array.set into.ext 1 smx

let quantile h q =
  if h.total = 0 then nan
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.total)) in
      if r < 1 then 1 else r
    in
    let mn = min_sample h and mx = max_sample h in
    (* The 1st and the last order statistic are known exactly. *)
    if rank <= 1 && not (Float.is_nan mn) then mn
    else if rank >= h.total && not (Float.is_nan mx) then mx
    else begin
    let i = ref 0 and cum = ref h.counts.(0) in
    while !cum < rank do
      incr i;
      cum := !cum + h.counts.(!i)
    done;
    let i = !i in
    (* Interpolate linearly inside the bucket: the rank'th sample of
       the [counts.(i)] samples here, assuming uniform spread. *)
    let below = !cum - h.counts.(i) in
    let frac =
      float_of_int (rank - below) /. float_of_int h.counts.(i)
    in
    let lo = bucket_lo i in
    let hi = bucket_hi i in
    let v =
      if i = overflow then lo (* no finite width to spread over *)
      else lo +. (frac *. (hi -. lo))
    in
    (* Clamp to observed extremes: buckets overshoot real samples. *)
    let v = if not (Float.is_nan mn) && v < mn then mn else v in
    let v = if not (Float.is_nan mx) && v > mx then mx else v in
    v
    end
  end

let buckets h =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.counts.(i) > 0 then
      acc := (bucket_lo i, bucket_hi i, h.counts.(i)) :: !acc
  done;
  !acc

let to_json h =
  let fl v : Json.t = if Float.is_nan v then Null else Float v in
  let q p = if h.total = 0 then Json.Null else fl (quantile h p) in
  Json.Assoc
    [
      ("count", Int h.total);
      ("min", fl (min_sample h));
      ("max", fl (max_sample h));
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
      ( "buckets",
        List
          (List.map
             (fun (lo, hi, c) ->
               Json.Assoc [ ("lo", Float lo); ("hi", Float hi); ("count", Int c) ])
             (buckets h)) );
    ]

(* ------------------------------------------------------------------ *)
(* Named registry, Domain.DLS-sharded like Telemetry.                 *)

type registry = (string, t) Hashtbl.t

let registry_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let registry () = Domain.DLS.get registry_key

let observe name v =
  let reg = registry () in
  (* [find], not [find_opt]: the option would be the one allocation *)
  let h =
    match Hashtbl.find reg name with
    | h -> h
    | exception Not_found ->
      let h = create () in
      Hashtbl.add reg name h;
      h
  in
  record h v

let named () =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) (registry ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name = Hashtbl.find_opt (registry ()) name
let reset () = Hashtbl.reset (registry ())

type shard = (string * t) list

let empty_shard : shard = []
let shard_is_empty s = s = []

let isolated f =
  let saved = registry () in
  let fresh : registry = Hashtbl.create 16 in
  Domain.DLS.set registry_key fresh;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set registry_key saved)
    (fun () ->
      let r = f () in
      let shard =
        Hashtbl.fold (fun name h acc -> (name, copy h) :: acc) fresh []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      (r, shard))

let merge_shard (s : shard) =
  let reg = registry () in
  List.iter
    (fun (name, h) ->
      match Hashtbl.find_opt reg name with
      | Some into -> merge_into ~into h
      | None -> Hashtbl.add reg name (copy h))
    s

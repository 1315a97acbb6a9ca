(* Allocation-free appends for the writers that build their text
   straight into its final [Buffer] (the PSSA printer, the checked-C
   memory image, the JSON writer). *)

(* Digits of [n <= 0], most significant first.  Working on the negative
   side keeps [min_int] representable. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [add_int buf n] appends [string_of_int n]. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

type t = { words : int array; capacity : int }

let word_bits = 63 (* OCaml native ints: use 63 bits per word portably *)

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((capacity / word_bits) + 1) 0; capacity }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let add t i =
  check t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod word_bits))

let remove t i =
  check t i;
  let w = i / word_bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod word_bits))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* Word by word, skipping zero words: a sparse set over a large capacity
   costs one read per word plus one step per bit up to a word's highest
   member.  Members come out in increasing order. *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let bits = ref t.words.(w) and i = ref (w * word_bits) in
    while !bits <> 0 do
      if !bits land 1 <> 0 then f !i;
      bits := !bits lsr 1;
      incr i
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

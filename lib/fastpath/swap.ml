(* Epoch-ordered publication of FIB images.

   The store is a grow-only array of entries indexed by epoch.  Readers
   pin the entry they forward on; a superseded entry is retired — its
   grace period ends — when its last pin drops, and lets go of its image
   then, so a long session holds only the images still in use.  All
   state transitions happen under one mutex: publication and pin churn
   are control-plane rate (per edit batch / per scenario item), never
   per packet, so a lock here costs nothing on the forwarding path while
   keeping the accounting exact under Domain-parallel readers. *)

type entry = {
  epoch : int;
  mutable fib : Fib.t option;  (* [None] once retired *)
  mutable pins : int;
}

type t = {
  mutex : Mutex.t;
  mutable entries : entry array;
  mutable len : int;
  mutable retired_count : int;
}

type stats = {
  current_epoch : int;
  published : int;
  live_pins : int;
  retired : int;
}

let with_lock t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
      Mutex.unlock t.mutex;
      v
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let create fib =
  {
    mutex = Mutex.create ();
    entries = [| { epoch = 0; fib = Some fib; pins = 0 } |];
    len = 1;
    retired_count = 0;
  }

let[@inline] current_entry t = t.entries.(t.len - 1)

(* An entry's image while it is in use: [pin_at] refuses retired
   entries, and the current entry never retires. *)
let image (e : entry) = Option.get e.fib

(* An entry leaves its grace period when it is superseded and unpinned.
   Callers hold the lock. *)
let maybe_retire t (e : entry) =
  if Option.is_some e.fib && e.pins = 0 && e.epoch < (current_entry t).epoch
  then begin
    e.fib <- None;
    t.retired_count <- t.retired_count + 1
  end

let publish t fib =
  Pr_telemetry.Span.timed "swap.publish" @@ fun () ->
  with_lock t (fun () ->
      let cur = current_entry t in
      let live = image cur in
      if Fib.n fib <> Fib.n live || Fib.ports fib <> Fib.ports live
         || Fib.dd_bits fib <> Fib.dd_bits live
      then
        invalid_arg
          "Swap.publish: image geometry differs from the published lineage";
      let epoch = t.len in
      let e = { epoch; fib = Some fib; pins = 0 } in
      if t.len = Array.length t.entries then begin
        let grown = Array.make (2 * t.len) e in
        Array.blit t.entries 0 grown 0 t.len;
        t.entries <- grown
      end;
      t.entries.(t.len) <- e;
      t.len <- t.len + 1;
      (* The superseded image may already be idle. *)
      maybe_retire t cur;
      epoch)

let epoch t = with_lock t (fun () -> (current_entry t).epoch)

let current t = with_lock t (fun () -> image (current_entry t))

let pin t =
  with_lock t (fun () ->
      let e = current_entry t in
      e.pins <- e.pins + 1;
      (e.epoch, image e))

let pin_at t ~epoch =
  with_lock t (fun () ->
      if epoch < 0 || epoch >= t.len then
        invalid_arg "Swap.pin_at: epoch never published";
      let e = t.entries.(epoch) in
      if Option.is_none e.fib then
        invalid_arg "Swap.pin_at: epoch already retired";
      e.pins <- e.pins + 1;
      image e)

let unpin t ~epoch =
  with_lock t (fun () ->
      if epoch < 0 || epoch >= t.len then
        invalid_arg "Swap.unpin: epoch never published";
      let e = t.entries.(epoch) in
      if e.pins <= 0 then invalid_arg "Swap.unpin: epoch not pinned";
      e.pins <- e.pins - 1;
      maybe_retire t e)

let stats t =
  with_lock t (fun () ->
      let live_pins = ref 0 in
      for i = 0 to t.len - 1 do
        live_pins := !live_pins + t.entries.(i).pins
      done;
      {
        current_epoch = (current_entry t).epoch;
        published = t.len;
        live_pins = !live_pins;
        retired = t.retired_count;
      })

let quiescent t =
  let s = stats t in
  s.live_pins = 0 && s.retired = s.published - 1

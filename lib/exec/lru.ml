(* A small size-capped LRU map for the runner's memo caches.

   Recency is tracked with stamps instead of a doubly-linked list: each
   live entry records the stamp of its latest touch, and a queue holds
   (key, stamp) pairs in touch order. Eviction pops the queue until it
   finds a pair whose stamp is still current — stale pairs (the entry
   was touched again later, or removed) are skipped for free. The queue
   is compacted once it grows past a small multiple of the cap, so
   memory stays O(cap) and every operation is amortised O(1). *)

type ('k, 'v) entry = { value : 'v; mutable stamp : int }

type ('k, 'v) t = {
  cap : int;
  on_evict : 'k -> 'v -> unit;
  tbl : ('k, ('k, 'v) entry) Hashtbl.t;
  order : ('k * int) Queue.t;       (* touch order; stale stamps skipped *)
  mutable clock : int;
}

let create ?(on_evict = fun _ _ -> ()) cap =
  let cap = max 1 cap in
  { cap; on_evict; tbl = Hashtbl.create (min cap 256);
    order = Queue.create (); clock = 0 }

let length t = Hashtbl.length t.tbl
let mem t k = Hashtbl.mem t.tbl k

let is_current t (k, stamp) =
  match Hashtbl.find_opt t.tbl k with
  | Some e -> e.stamp = stamp
  | None -> false

let compact t =
  if Queue.length t.order > (8 * t.cap) + 8 then begin
    let live = Queue.create () in
    Queue.iter (fun p -> if is_current t p then Queue.push p live) t.order;
    Queue.clear t.order;
    Queue.transfer live t.order
  end

let touch t k e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock;
  Queue.push (k, t.clock) t.order;
  compact t

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some e ->
    touch t k e;
    Some e.value

let peek t k =
  match Hashtbl.find_opt t.tbl k with None -> None | Some e -> Some e.value

(* Evict the least-recently-touched live entry. *)
let evict_one t =
  let rec pop () =
    let ((k, _) as p) = Queue.pop t.order in
    if is_current t p then begin
      let e = Hashtbl.find t.tbl k in
      Hashtbl.remove t.tbl k;
      t.on_evict k e.value
    end
    else pop ()
  in
  if Hashtbl.length t.tbl > 0 then pop ()

let add t k v =
  (match Hashtbl.find_opt t.tbl k with
   | Some _ -> Hashtbl.remove t.tbl k
   | None -> if Hashtbl.length t.tbl >= t.cap then evict_one t);
  let e = { value = v; stamp = 0 } in
  Hashtbl.replace t.tbl k e;
  touch t k e

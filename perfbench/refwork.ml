(* refwork: a fixed reference workload that times the host, not kit.

     refwork
       runs the work once and prints "SECONDS CHECKSUM".

   It uses the standard library only, so no change to kit moves its
   time; what moves it is the speed the shared host gives this process
   at that moment. perfbench/run.py runs it between the kitbench
   processes of a run and scales the run's times by it. The mix (hash
   tables keyed by ints with string values, short-lived lists, an array
   sort, string building) resembles kit's own allocation-heavy work, so
   host contention slows both alike. *)

let work () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for round = 0 to 1 do
    Hashtbl.reset h;
    for i = 0 to 99_999 do
      Hashtbl.replace h ((i * 7919 + round) land 0xfffff) (string_of_int i)
    done;
    for i = 0 to 99_999 do
      match Hashtbl.find_opt h ((i * 104729) land 0xfffff) with
      | Some s -> acc := !acc + String.length s
      | None -> ()
    done;
    let a = Array.init 50_000 (fun i -> (i * 2654435761) land 0xffff) in
    Array.sort compare a;
    let l = List.init 50_000 (fun i -> (i, a.(i))) in
    acc := !acc + List.fold_left (fun s (x, y) -> s + (x lxor y)) 0 (List.rev l);
    let b = Buffer.create 16 in
    List.iter (fun (x, _) -> if x land 7 = 0 then Buffer.add_string b (string_of_int x)) l;
    acc := !acc + Buffer.length b
  done;
  !acc

let () =
  let t0 = Unix.gettimeofday () in
  let sum = work () in
  Printf.printf "%.9f %d\n" (Unix.gettimeofday () -. t0) sum

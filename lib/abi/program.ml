(* Test programs: finite sequences of system calls with resource-typed
   arguments, the unit of input that KIT profiles and pairs into test
   cases (paper, section 4.1). *)

type call = {
  sysno : Sysno.t;
  args : Value.t list;
}

type t = {
  calls : call list;
}

let make calls = { calls }
let calls t = t.calls
let length t = List.length t.calls

let nth t i = List.nth_opt t.calls i

let call_equal a b =
  Sysno.equal a.sysno b.sysno && List.equal Value.equal a.args b.args

let equal a b = List.equal call_equal a.calls b.calls

let pp_call ppf { sysno; args } =
  Fmt.pf ppf "%a(%a)" Sysno.pp sysno (Fmt.list ~sep:(Fmt.any ", ") Value.pp)
    args

let pp ppf t =
  let pp_line i c = Fmt.pf ppf "r%d = %a@." i pp_call c in
  List.iteri pp_line t.calls

let to_string t = Fmt.str "%a" pp t

(* A stable digest used to cache per-program artefacts (non-determinism
   maps, profiles) across the pipeline. The default Hashtbl.hash only
   inspects ~10 nodes, which collides for programs sharing a prefix, so
   the traversal limits are raised to cover whole programs. The call
   list is hashed in place: the runner hashes a receiver on every
   execution. *)
let hash t = Hashtbl.hash_param 512 512 t.calls

(* Static resource typing: the fd type produced by each call, by abstract
   interpretation of constant arguments. Calls that fail or produce no
   resource are [None]. *)
let result_types t =
  let types = Array.make (max 1 (length t)) None in
  let type_of i { sysno; args } =
    match sysno, args with
    | Sysno.Socket, Value.Int d :: _ -> Fdtype.of_socket_domain d
    | Sysno.Open, Value.Str path :: _ -> Fdtype.of_path path
    | Sysno.Creat, Value.Str path :: _ -> Fdtype.of_path path
    | Sysno.Msgget, _ -> Some Fdtype.Msgqid
    | Sysno.Token_create, _ -> Some Fdtype.Token
    | ( Sysno.Unshare | Sysno.Socket | Sysno.Close | Sysno.Bind
      | Sysno.Connect | Sysno.Send | Sysno.Flowlabel_request
      | Sysno.Get_cookie | Sysno.Sctp_assoc | Sysno.Alloc_protomem
      | Sysno.Open | Sysno.Read | Sysno.Fstat | Sysno.Creat
      | Sysno.Io_uring_read | Sysno.Msgsnd | Sysno.Msgrcv
      | Sysno.Msgctl_stat | Sysno.Setpriority | Sysno.Getpriority
      | Sysno.Sethostname | Sysno.Gethostname | Sysno.Netdev_create
      | Sysno.Uevent_recv | Sysno.Ipvs_add_service | Sysno.Sysctl_read
      | Sysno.Sysctl_write | Sysno.Conntrack_add | Sysno.Sock_diag
      | Sysno.Af_alg_bind | Sysno.Clock_gettime | Sysno.Clock_settime
      | Sysno.Getpid | Sysno.Token_stat ), _ ->
      ignore i;
      None
  in
  List.iteri (fun i c -> types.(i) <- type_of i c) t.calls;
  types

(* Fd types consumed by call [i], resolved against the producing calls. *)
let uses_types types { sysno = _; args } =
  let resolve acc = function
    | Value.Ref j when j >= 0 && j < Array.length types -> (
      match types.(j) with None -> acc | Some ty -> ty :: acc)
    | Value.Ref _ | Value.Int _ | Value.Str _ -> acc
  in
  List.rev (List.fold_left resolve [] args)

(* Remove the [i]-th call, remapping resource references: references to
   later calls shift down by one; references to the removed call become
   the invalid fd -1 (the kernel then fails them with EBADF). Used by the
   report-diagnosis step (paper, Algorithm 2). *)
let remove_call t i =
  let remap_arg = function
    | Value.Ref j when j = i -> Value.Int (-1)
    | Value.Ref j when j > i -> Value.Ref (j - 1)
    | (Value.Ref _ | Value.Int _ | Value.Str _) as v -> v
  in
  let keep = ref [] in
  List.iteri
    (fun k c ->
      if k <> i then
        keep := { c with args = List.map remap_arg c.args } :: !keep)
    t.calls;
  { calls = List.rev !keep }

let append a b =
  let shift = length a in
  let remap_arg = function
    | Value.Ref j -> Value.Ref (j + shift)
    | (Value.Int _ | Value.Str _) as v -> v
  in
  let shifted = List.map (fun c -> { c with args = List.map remap_arg c.args }) b.calls in
  { calls = a.calls @ shifted }

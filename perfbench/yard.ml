(* The yardstick: how fast the CPU runs, sampled all through a run, so the
   end-to-end times can be reported at a fixed reference speed. On a shared
   host the same job can take twice as long from one minute to the next,
   and the two vCPUs slow down independently of each other.

   A sampler process, pinned with the benchmark to one CPU (perfbench/run.sh
   does the pinning) and at real-time priority so that no other task cuts
   into it, wakes every [period_s] and times one slice of fixed work. The
   slice is benchmark-owned: dense LU solves on a small float matrix, the
   annealer's kind of arithmetic, allocating nothing and calling nothing
   from the program under test, so a change to the program cannot move it.
   An interval of the run then counts as its wall time scaled by [ref_s]
   over the mean slice time of the samples taken during it. *)

let n = 32

(* A fixed, diagonally dominant matrix and right-hand side, and the
   scratch copies the solve works in. *)
let matrix =
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then float_of_int (2 * n)
          else 1.0 /. float_of_int (1 + (((i * 7) + (j * 13)) mod 17))))

let rhs = Array.init n (fun i -> float_of_int (i + 1))
let lu = Array.make_matrix n n 0.0
let x = Array.make n 0.0

(* Gaussian elimination with partial pivoting; returns x.(0). *)
let solve () =
  Array.iteri (fun i row -> Array.blit row 0 lu.(i) 0 n) matrix;
  Array.blit rhs 0 x 0 n;
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.(i).(k) > Float.abs lu.(!p).(k) then p := i
    done;
    if !p <> k then begin
      let t = lu.(k) in
      lu.(k) <- lu.(!p);
      lu.(!p) <- t;
      let t = x.(k) in
      x.(k) <- x.(!p);
      x.(!p) <- t
    end;
    let lk = lu.(k) in
    for i = k + 1 to n - 1 do
      let li = lu.(i) in
      let f = li.(k) /. lk.(k) in
      for j = k to n - 1 do
        li.(j) <- li.(j) -. (f *. lk.(j))
      done;
      x.(i) <- x.(i) -. (f *. x.(k))
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. lu.(i).(i)
  done;
  x.(0)

let solves_per_slice = 40
let period_s = 0.05

(* Seconds a slice takes at the reference speed: about its time on an
   uncontended 2.0 GHz Xeon (Sapphire Rapids) vCPU. *)
let ref_s = 0.0007

(* The sampler's loop: one "start_ns end_ns" line per slice, until killed
   or until the benchmark that started it is gone. *)
let sample_forever () =
  let parent = Unix.getppid () in
  let acc = ref 0.0 in
  while Unix.getppid () = parent do
    Unix.sleepf period_s;
    let t0 = Span.now () in
    for _ = 1 to solves_per_slice do
      acc := !acc +. solve ()
    done;
    let t1 = Span.now () in
    Printf.printf "%Ld %Ld\n%!" t0 t1
  done

(* ---- the benchmark's side ------------------------------------------------ *)

type sampler = { pid : int; path : string }

let live : sampler option ref = ref None

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  live := None

let () = at_exit (fun () -> Option.iter kill !live)

let succeeds prog args =
  match
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin Unix.stderr Unix.stderr
  with
  | pid -> ( match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
  | exception Unix.Unix_error _ -> false

(* Start the sampler, this program in sampler mode, writing to [path]. It
   runs at real-time priority when [chrt] may grant it. *)
let start ~path =
  let exe = Sys.executable_name in
  let realtime = succeeds "chrt" [ "-f"; "1"; "true" ] in
  let argv =
    if realtime then [| "chrt"; "-f"; "1"; exe; "--yard-sampler" |]
    else [| exe; "--yard-sampler" |]
  in
  let out = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out Unix.stderr in
  Unix.close out;
  if not realtime then
    prerr_endline
      "perfbench: chrt refused real-time priority; the yardstick samples at normal priority";
  let s = { pid; path } in
  live := Some s;
  s

(* Samples in time order: (start, slice seconds). *)
type samples = (int64 * float) array

(* Stop the sampler and read what it wrote. *)
let stop s : samples =
  kill s;
  let ic = open_in s.path in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
        match Scanf.sscanf line "%Ld %Ld" (fun a b -> (a, Span.secs a b)) with
        | v -> read (v :: acc)
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> read acc)
  in
  let v = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read []) in
  Sys.remove s.path;
  if v = [] then failwith "perfbench: the yardstick sampler recorded no sample";
  Array.of_list v

(* Fewest samples an interval is scaled by, about a second's worth; a
   shorter interval borrows the samples nearest to it. *)
let min_samples = 20

(* [scale ys t0 t1]: the interval from [t0] to [t1] in seconds at the
   reference speed: its wall time times [ref_s] over the mean slice time
   of the samples taken during it. *)
let scale (ys : samples) t0 t1 =
  let m = Array.length ys in
  (* Index of the first sample that starts at or after [t]. *)
  let rec first t lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Int64.compare (fst ys.(mid)) t < 0 then first t (mid + 1) hi else first t lo mid
  in
  let lo = ref (first t0 0 m) and hi = ref (first t1 0 m) in
  while !hi - !lo < min_samples && (!lo > 0 || !hi < m) do
    let before = if !lo > 0 then Span.secs (fst ys.(!lo - 1)) t0 else infinity in
    let after = if !hi < m then Span.secs t1 (fst ys.(!hi)) else infinity in
    if before <= after then decr lo else incr hi
  done;
  let sum = ref 0.0 in
  for i = !lo to !hi - 1 do
    sum := !sum +. snd ys.(i)
  done;
  Span.secs t0 t1 *. ref_s /. (!sum /. float_of_int (!hi - !lo))

(* The CPU's mean speed over the samples, as a share of the reference. *)
let speed (ys : samples) =
  ref_s /. (Array.fold_left (fun a (_, s) -> a +. s) 0.0 ys /. float_of_int (Array.length ys))

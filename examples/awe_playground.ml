(* Example: Asymptotic Waveform Evaluation on its own — the substrate that
   makes equation-free synthesis possible. Builds an RC transmission-line
   ladder, reduces it with AWE, and compares the reduced model against the
   exact AC response, including timing.

   Run with: dune exec examples/awe_playground.exe *)

let value e =
  Netlist.Expr.eval
    { Netlist.Expr.lookup = (fun _ -> raise Not_found); call = (fun _ _ -> nan) }
    e

(* An n-section RC ladder: vin - R - o1 - R - o2 ... with C to ground. *)
let ladder n =
  let b = Buffer.create 256 in
  Buffer.add_string b "vin n0 0 0 ac 1\n";
  for k = 1 to n do
    Buffer.add_string b (Printf.sprintf "r%d n%d n%d 100\n" k (k - 1) k);
    Buffer.add_string b (Printf.sprintf "c%d n%d 0 1p\n" k k)
  done;
  Netlist.Elab.flatten ~subckts:[] (Netlist.Parser.parse_elements (Buffer.contents b))

let () =
  List.iter
    (fun n ->
      let ckt = ladder n in
      let lin = Mna.Linearize.build ~value ~ops:(fun _ -> None) ckt in
      let b = lin.Mna.Linearize.b in
      let out = Netlist.Circuit.find_node ckt (Printf.sprintf "n%d" n) in
      let sel = Mna.Linearize.output_vector lin ~pos:out ~neg:None in
      match Awe.Rom.build lin ~b ~sel with
      | Error e -> Printf.printf "ladder %d: AWE failed: %s\n" n e
      | Ok rom ->
          (* Accuracy vs direct AC, measured where the response is still
             meaningful (above -60 dB): moment matching at s=0 cannot — and
             need not — track a response attenuated into the noise floor. *)
          let worst = ref 0.0 in
          for k = 0 to 60 do
            let f = 1e3 *. (10.0 ** (float_of_int k /. 10.0)) in
            let exact =
              La.Cpx.abs (Mna.Ac.transfer lin ~b ~sel ~w:(2.0 *. Float.pi *. f))
            in
            let approx = Awe.Rom.magnitude_at rom ~f in
            if exact > 1e-3 then
              worst := Float.max !worst (Float.abs (approx -. exact) /. exact)
          done;
          (* timing: one AWE evaluation vs a 61-point direct sweep *)
          let time f =
            let t0 = Unix.gettimeofday () in
            let iters = 20 in
            for _ = 1 to iters do
              f ()
            done;
            (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e3
          in
          let t_awe = time (fun () -> ignore (Awe.Rom.build lin ~b ~sel)) in
          let freqs = Array.init 61 (fun k -> 1e3 *. (10.0 ** (float_of_int k /. 10.0))) in
          let t_ac = time (fun () -> ignore (Mna.Ac.sweep lin ~b ~sel freqs)) in
          Printf.printf
            "ladder n=%2d: AWE order %d, worst |H| error %.2e, %5.2f ms vs %6.2f ms direct (%.0fx)\n"
            n (Array.length (Awe.Rom.poles rom)) !worst t_awe t_ac (t_ac /. t_awe))
    [ 2; 5; 10; 20; 40 ]

type t = { idx : Sysmat.t; g : La.Mat.t; c : La.Mat.t; b : La.Vec.t }

(* Stamp every element of [circuit] into [t]'s matrices, cleared first.
   [Sysmat.of_circuit] depends only on element kinds, names and node
   connectivity — never on values or operating points — so a system built
   from a jig circuit has the layout of every later state of that jig: the
   incremental probe path restamps one buffer thousands of times. *)
let restamp { idx; g; c; b } ~value ~ops circuit =
  La.Mat.fill g 0.0;
  La.Mat.fill c 0.0;
  La.Vec.fill b 0.0;
  let nrow = Sysmat.node_row idx in
  let add_g = Sysmat.add_g idx g in
  let brow name =
    match Sysmat.branch_of_name idx name with
    | Some r -> r
    | None -> failwith ("linearize: unknown voltage-defined element " ^ name)
  in
  let cap_between n1 n2 cv =
    let i = nrow n1 and j = nrow n2 in
    if i >= 0 then La.Mat.add_to c i i cv;
    if j >= 0 then La.Mat.add_to c j j cv;
    if i >= 0 && j >= 0 then begin
      La.Mat.add_to c i j (-.cv);
      La.Mat.add_to c j i (-.cv)
    end
  in
  let handle (e : Netlist.Circuit.element) =
    match e with
    | Netlist.Circuit.Resistor { name; n1; n2; value = ve } ->
        let r = value ve in
        if r <= 0.0 then failwith (name ^ ": non-positive resistance");
        Sysmat.stamp_conductance idx g n1 n2 (1.0 /. r)
    | Netlist.Circuit.Capacitor { n1; n2; value = ve; _ } -> cap_between n1 n2 (value ve)
    | Netlist.Circuit.Inductor { name; n1; n2; value = ve } ->
        let row = brow name in
        add_g row (nrow n1) 1.0;
        add_g row (nrow n2) (-1.0);
        add_g (nrow n1) row 1.0;
        add_g (nrow n2) row (-1.0);
        La.Mat.add_to c row row (-.value ve)
    | Netlist.Circuit.Vsource { name; np; nn; ac; _ } ->
        let row = brow name in
        add_g row (nrow np) 1.0;
        add_g row (nrow nn) (-1.0);
        add_g (nrow np) row 1.0;
        add_g (nrow nn) row (-1.0);
        Sysmat.add_vec row ac b
    | Netlist.Circuit.Isource { np; nn; ac; _ } ->
        Sysmat.add_vec (nrow np) (-.ac) b;
        Sysmat.add_vec (nrow nn) ac b
    | Netlist.Circuit.Vcvs { name; np; nn; ncp; ncn; gain } ->
        let row = brow name in
        let gv = value gain in
        add_g row (nrow np) 1.0;
        add_g row (nrow nn) (-1.0);
        add_g row (nrow ncp) (-.gv);
        add_g row (nrow ncn) gv;
        add_g (nrow np) row 1.0;
        add_g (nrow nn) row (-1.0)
    | Netlist.Circuit.Vccs { np; nn; ncp; ncn; gm; _ } ->
        Sysmat.stamp_vccs idx g np nn ncp ncn (value gm)
    | Netlist.Circuit.Cccs { np; nn; vsrc; gain; _ } ->
        let col = brow vsrc in
        add_g (nrow np) col (value gain);
        add_g (nrow nn) col (-.value gain)
    | Netlist.Circuit.Ccvs { name; np; nn; vsrc; r } ->
        let row = brow name in
        let col = brow vsrc in
        add_g row (nrow np) 1.0;
        add_g row (nrow nn) (-1.0);
        add_g row col (-.value r);
        add_g (nrow np) row 1.0;
        add_g (nrow nn) row (-1.0)
    | Netlist.Circuit.Mosfet { name; d; g = ng; s; b = nb; _ } -> begin
        match ops name with
        | Some (Dc.Mos_op op) ->
            let open Devices.Sig in
            Sysmat.stamp_vccs idx g d s ng s op.gm;
            Sysmat.stamp_conductance idx g d s op.gds;
            Sysmat.stamp_vccs idx g d s nb s op.gmbs;
            Sysmat.stamp_conductance idx g nb d op.gbd;
            Sysmat.stamp_conductance idx g nb s op.gbs;
            cap_between ng s op.cgs;
            cap_between ng d op.cgd;
            cap_between ng nb op.cgb;
            cap_between nb d op.cbd;
            cap_between nb s op.cbs
        | Some (Dc.Bjt_op _) | None ->
            failwith ("linearize: no MOS operating point for " ^ name)
      end
    | Netlist.Circuit.Bjt { name; c = nc; b = nb; e = ne; _ } -> begin
        match ops name with
        | Some (Dc.Bjt_op op) ->
            let open Devices.Sig in
            Sysmat.stamp_vccs idx g nc ne nb ne op.bjt_gm;
            Sysmat.stamp_conductance idx g nb ne op.gpi;
            Sysmat.stamp_conductance idx g nc ne op.go;
            Sysmat.stamp_conductance idx g nb nc (Float.max (-.op.gmu) 0.0);
            cap_between nb ne op.cpi;
            cap_between nb nc op.cmu;
            cap_between nc 0 op.ccs
        | Some (Dc.Mos_op _) | None ->
            failwith ("linearize: no BJT operating point for " ^ name)
      end
  in
  Array.iter handle circuit.Netlist.Circuit.elements

let build ~value ~ops circuit =
  let idx = Sysmat.of_circuit circuit in
  let n = idx.Sysmat.size in
  let t = { idx; g = La.Mat.create n n; c = La.Mat.create n n; b = La.Vec.create n } in
  restamp t ~value ~ops circuit;
  t

let output_vector t ~pos ~neg =
  let sel = La.Vec.create t.idx.Sysmat.size in
  let set node v =
    let r = Sysmat.node_row t.idx node in
    if r >= 0 then sel.(r) <- v
  in
  set pos 1.0;
  (match neg with Some nn -> set nn (-1.0) | None -> ());
  sel

let excitation_of t ~src =
  let b = La.Vec.create t.idx.Sysmat.size in
  let found = ref false in
  Array.iter
    (fun (e : Netlist.Circuit.element) ->
      match e with
      | Netlist.Circuit.Vsource { name; _ } when name = src -> begin
          found := true;
          match Sysmat.branch_of_name t.idx name with
          | Some row -> b.(row) <- 1.0
          | None -> ()
        end
      | Netlist.Circuit.Isource { name; np; nn; _ } when name = src ->
          found := true;
          Sysmat.add_vec (Sysmat.node_row t.idx np) (-1.0) b;
          Sysmat.add_vec (Sysmat.node_row t.idx nn) 1.0 b
      | Netlist.Circuit.Resistor _ | Netlist.Circuit.Capacitor _ | Netlist.Circuit.Inductor _
      | Netlist.Circuit.Vsource _ | Netlist.Circuit.Isource _ | Netlist.Circuit.Vcvs _
      | Netlist.Circuit.Vccs _ | Netlist.Circuit.Cccs _ | Netlist.Circuit.Ccvs _
      | Netlist.Circuit.Mosfet _ | Netlist.Circuit.Bjt _ ->
          ())
    t.idx.Sysmat.circuit.Netlist.Circuit.elements;
  if not !found then failwith ("linearize: unknown excitation source " ^ src);
  b

(* Shared QCheck generators for random HLI files, used by the
   serializer property tests (test_hli.ml) and the fuzz/differential
   harness (test_serialize_fuzz.ml).

   [~allow_zero:true] additionally generates the boundary values
   [Some 0] for LCDD distances and region parents, which only the
   container's explicit option tags keep apart from [None]. *)

module T = Hli_core.Tables

let gen_file ?(allow_zero = false) () : T.hli_file QCheck.Gen.t =
  QCheck.Gen.(
    let opt_floor = if allow_zero then 0 else 1 in
    let gen_acc = oneofl [ T.Acc_load; T.Acc_store; T.Acc_call ] in
    let gen_item =
      int_range 1 500 >>= fun id ->
      gen_acc >>= fun acc -> return { T.item_id = id; acc }
    in
    let gen_line =
      int_range 1 200 >>= fun line_no ->
      list_size (int_range 0 5) gen_item >>= fun items ->
      return { T.line_no; items }
    in
    let gen_member =
      oneof
        [
          map (fun i -> T.Member_item i) (int_range 1 500);
          (int_range 1 20 >>= fun sub_region ->
           int_range 1 500 >>= fun cls ->
           return (T.Member_subclass { sub_region; cls }));
        ]
    in
    let gen_class =
      int_range 1 500 >>= fun class_id ->
      oneofl [ T.Definitely; T.Maybe ] >>= fun kind ->
      string_size ~gen:(char_range 'a' 'z') (int_range 0 8) >>= fun desc ->
      list_size (int_range 0 4) gen_member >>= fun members ->
      return { T.class_id; kind; desc; members }
    in
    let gen_lcdd =
      int_range 1 500 >>= fun lcdd_src ->
      int_range 1 500 >>= fun lcdd_dst ->
      oneofl [ T.Dep_definite; T.Dep_maybe ] >>= fun lcdd_dep ->
      opt (int_range opt_floor 64) >>= fun lcdd_distance ->
      return { T.lcdd_src; lcdd_dst; lcdd_dep; lcdd_distance }
    in
    let gen_callrefmod =
      oneof
        [
          map (fun i -> T.Key_call_item i) (int_range 1 500);
          map (fun r -> T.Key_sub_region r) (int_range 1 20);
        ]
      >>= fun call_key ->
      bool >>= fun refmod_all ->
      list_size (int_range 0 3) (int_range 1 500) >>= fun ref_classes ->
      list_size (int_range 0 3) (int_range 1 500) >>= fun mod_classes ->
      return { T.call_key; ref_classes; mod_classes; refmod_all }
    in
    let gen_region =
      int_range 1 20 >>= fun region_id ->
      oneofl [ T.Region_unit; T.Region_loop ] >>= fun rtype ->
      opt (int_range opt_floor 20) >>= fun parent ->
      int_range 1 100 >>= fun first_line ->
      int_range 1 100 >>= fun d ->
      list_size (int_range 0 4) gen_class >>= fun eq_classes ->
      list_size (int_range 0 2)
        (list_size (int_range 2 4) (int_range 1 500)
        >|= fun alias_classes -> { T.alias_classes })
      >>= fun aliases ->
      list_size (int_range 0 4) gen_lcdd >>= fun lcdds ->
      list_size (int_range 0 2) gen_callrefmod >>= fun callrefmods ->
      return
        {
          T.region_id;
          rtype;
          parent;
          first_line;
          last_line = first_line + d;
          eq_classes;
          aliases;
          lcdds;
          callrefmods;
        }
    in
    let gen_entry =
      string_size ~gen:(char_range 'a' 'z') (int_range 1 10) >>= fun unit_name ->
      list_size (int_range 0 8) gen_line >>= fun line_table ->
      list_size (int_range 0 4) gen_region >>= fun regions ->
      return { T.unit_name; line_table; regions }
    in
    list_size (int_range 0 4) gen_entry >>= fun entries -> return { T.entries })

(* The first HLI payload encoding (magic "HLI1"), kept verbatim as the
   oracle for [Serialize.size_bytes]: Table 1's size is defined as the
   length of this encoding.  Integers are varints, strings and lists
   are length-prefixed, and an optional field is the bare varint of its
   value, 0 when absent (so [Some 0] and [None] encode alike).
   Probabilities are not encoded. *)
module Old_hli1 = struct
  module S = Hli_core.Serialize

  let put_acc buf = function
    | T.Acc_load -> Buffer.add_char buf '\000'
    | T.Acc_store -> Buffer.add_char buf '\001'
    | T.Acc_call -> Buffer.add_char buf '\002'

  let put_item buf it =
    S.put_varint buf it.T.item_id;
    put_acc buf it.T.acc

  let put_line buf le =
    S.put_varint buf le.T.line_no;
    S.put_list buf put_item le.T.items

  let put_member buf = function
    | T.Member_item id ->
        Buffer.add_char buf '\000';
        S.put_varint buf id
    | T.Member_subclass { sub_region; cls } ->
        Buffer.add_char buf '\001';
        S.put_varint buf sub_region;
        S.put_varint buf cls

  let put_class buf c =
    S.put_varint buf c.T.class_id;
    Buffer.add_char buf
      (match c.T.kind with T.Definitely -> '\000' | T.Maybe -> '\001');
    S.put_string buf c.T.desc;
    S.put_list buf put_member c.T.members

  let put_alias buf a = S.put_list buf S.put_varint a.T.alias_classes

  let put_lcdd buf l =
    S.put_varint buf l.T.lcdd_src;
    S.put_varint buf l.T.lcdd_dst;
    Buffer.add_char buf
      (match l.T.lcdd_dep with T.Dep_definite -> '\000' | T.Dep_maybe -> '\001');
    S.put_varint buf (Option.value l.T.lcdd_distance ~default:0)

  let put_callrefmod buf e =
    (match e.T.call_key with
    | T.Key_call_item id ->
        Buffer.add_char buf '\000';
        S.put_varint buf id
    | T.Key_sub_region r ->
        Buffer.add_char buf '\001';
        S.put_varint buf r);
    S.put_bool buf e.T.refmod_all;
    S.put_list buf S.put_varint e.T.ref_classes;
    S.put_list buf S.put_varint e.T.mod_classes

  let put_region buf r =
    S.put_varint buf r.T.region_id;
    Buffer.add_char buf
      (match r.T.rtype with T.Region_unit -> '\000' | T.Region_loop -> '\001');
    S.put_varint buf (Option.value r.T.parent ~default:0);
    S.put_varint buf r.T.first_line;
    S.put_varint buf r.T.last_line;
    S.put_list buf put_class r.T.eq_classes;
    S.put_list buf put_alias r.T.aliases;
    S.put_list buf put_lcdd r.T.lcdds;
    S.put_list buf put_callrefmod r.T.callrefmods

  let put_entry buf e =
    S.put_string buf e.T.unit_name;
    S.put_list buf put_line e.T.line_table;
    S.put_list buf put_region e.T.regions

  let to_bytes (f : T.hli_file) : string =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "HLI1";
    S.put_list buf put_entry f.T.entries;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* hlid wire-protocol frame generators, used by the protocol fuzz      *)
(* harness (test_protocol_fuzz.ml) and the server tests.               *)
(* ------------------------------------------------------------------ *)

module P = Hli_server.Protocol

let gen_unit_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let gen_query : P.query QCheck.Gen.t =
  QCheck.Gen.(
    gen_unit_name >>= fun u ->
    oneof
      [
        (int_range 0 500 >>= fun a ->
         int_range 0 500 >>= fun b -> return (P.Q_equiv { u; a; b }));
        (int_range 0 500 >>= fun call ->
         int_range 0 500 >>= fun mem -> return (P.Q_call { u; call; mem }));
        map (fun item -> P.Q_hoist_target { u; item }) (int_range 0 500);
      ])

(* Every request constructor is reachable so the fuzz sweep exercises
   each frame kind's decoder. *)
let gen_request : P.request QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        return (P.Hello { version = P.protocol_version });
        map
          (fun f -> P.Open_hli (Hli_core.Serialize.to_bytes f))
          (gen_file ~allow_zero:true ());
        map (fun qs -> P.Batch qs) (list_size (int_range 0 12) gen_query);
        (gen_unit_name >>= fun u ->
         int_range 0 500 >>= fun item -> return (P.Notify_delete { u; item }));
        (gen_unit_name >>= fun u ->
         int_range 0 500 >>= fun like ->
         int_range 1 200 >>= fun line -> return (P.Notify_gen { u; like; line }));
        (gen_unit_name >>= fun u ->
         int_range 0 500 >>= fun item ->
         int_range 1 20 >>= fun target_rid ->
         return (P.Notify_move { u; item; target_rid }));
        (gen_unit_name >>= fun u ->
         int_range 1 20 >>= fun rid ->
         int_range 2 8 >>= fun factor ->
         return (P.Notify_unroll { u; rid; factor }));
        map (fun u -> P.Refresh u) gen_unit_name;
        map (fun u -> P.Line_table u) gen_unit_name;
        return P.Stats;
        return P.Close;
        (* delta-upload pair (protocol v3): hash refs and fill payloads
           are arbitrary bytes at the codec layer — semantic checks
           (hash agreement, pending-open state) live in the server *)
        map
          (fun refs ->
            P.Open_delta
              (List.map (fun u -> (u, Digest.string u)) refs))
          (list_size (int_range 0 8) gen_unit_name);
        map
          (fun payloads -> P.Delta_fill payloads)
          (list_size (int_range 0 4)
             (map
                (fun f ->
                  match f.Hli_core.Tables.entries with
                  | e :: _ -> Hli_core.Serialize.entry_to_bytes e
                  | [] -> "")
                (gen_file ~allow_zero:true ())));
      ])

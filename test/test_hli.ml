(* Tests for the HLI core: tables, queries, serialization (with a random
   file generator), and the maintenance API including unrolling. *)

module T = Hli_core.Tables

(* the paper's Figure 2 program builds our reference entry *)
let fig2 =
  {|
int a[10];
int b[10];
int sum;

void foo()
{
  int i;
  int j;
  for (i = 0; i < 10; i++)
  {
    a[i] = 0;
  }
  for (i = 0; i < 10; i++)
  {
    sum = sum + a[i] + b[0];
    for (j = 1; j < 10; j++)
    {
      b[j] = b[j] + b[j-1];
      a[i] = a[i] + b[j];
      sum = sum + 1;
    }
  }
}
|}

let fig2_entry () =
  let prog = Srclang.Typecheck.program_of_string fig2 in
  let ctx = Hligen.Tblconst.make_context prog in
  let f = List.hd prog.Srclang.Tast.funcs in
  let entry, _, _ = Hligen.Tblconst.build_unit ctx f in
  entry

let query_tests =
  [
    Alcotest.test_case "region structure" `Quick (fun () ->
        let e = fig2_entry () in
        Alcotest.(check int) "4 regions" 4 (List.length e.T.regions);
        let r1 = List.hd e.T.regions in
        Alcotest.(check bool) "unit first" true (r1.T.rtype = T.Region_unit);
        Alcotest.(check int) "unit has 3 classes" 3 (List.length r1.T.eq_classes));
    Alcotest.test_case "equiv: b[j] vs b[j-1] proven distinct" `Quick (fun () ->
        let idx = Hli_core.Query.build (fig2_entry ()) in
        (* items 6 and 7 are the loads of b[j] and b[j-1] *)
        Alcotest.(check bool) "none" true
          (Hli_core.Query.get_equiv_acc idx 6 7 = Hli_core.Query.Equiv_none);
        Alcotest.(check bool) "symmetric" true
          (Hli_core.Query.get_equiv_acc idx 7 6 = Hli_core.Query.Equiv_none));
    Alcotest.test_case "equiv: b[j] load vs store same class" `Quick (fun () ->
        let idx = Hli_core.Query.build (fig2_entry ()) in
        match Hli_core.Query.get_equiv_acc idx 6 8 with
        | Hli_core.Query.Equiv_same _ -> ()
        | r -> Alcotest.failf "got %a" Hli_core.Query.pp_equiv_result r);
    Alcotest.test_case "equiv across regions via subclasses" `Quick (fun () ->
        let idx = Hli_core.Query.build (fig2_entry ()) in
        (* item 1 (a[i] store, first loop) vs item 9 (a[i] load, j loop):
           common region is the unit; same a[0..9] class (maybe) *)
        match Hli_core.Query.get_equiv_acc idx 1 9 with
        | Hli_core.Query.Equiv_same T.Maybe -> ()
        | r -> Alcotest.failf "got %a" Hli_core.Query.pp_equiv_result r);
    Alcotest.test_case "alias: b[0] vs b[0..9] in region 3" `Quick (fun () ->
        let e = fig2_entry () in
        let idx = Hli_core.Query.build e in
        (* item 4 is the b[0] load; item 6 the b[j] load.  In region 3
           their classes are distinct but aliased. *)
        match Hli_core.Query.get_equiv_acc idx 4 6 with
        | Hli_core.Query.Equiv_alias -> ()
        | r -> Alcotest.failf "got %a" Hli_core.Query.pp_equiv_result r);
    Alcotest.test_case "lcdd b[j] -> b[j-1] distance 1" `Quick (fun () ->
        let idx = Hli_core.Query.build (fig2_entry ()) in
        match Hli_core.Query.get_lcdd idx ~rid:4 8 7 with
        | Some [ l ] ->
            Alcotest.(check (option int)) "distance" (Some 1) l.T.lcdd_distance;
            Alcotest.(check bool) "definite" true (l.T.lcdd_dep = T.Dep_definite)
        | Some l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)
        | None -> Alcotest.fail "items not represented");
    Alcotest.test_case "line table lookups" `Quick (fun () ->
        let e = fig2_entry () in
        let idx = Hli_core.Query.build e in
        Alcotest.(check (option int)) "item 6 on line 19" (Some 19)
          (Hli_core.Query.line_of_item idx 6);
        Alcotest.(check int) "3 items on line 19" 3
          (List.length (T.items_of_line e 19));
        Alcotest.(check (option bool)) "item 8 is store" (Some true)
          (Option.map (fun a -> a = T.Acc_store) (Hli_core.Query.access_type idx 8)));
    Alcotest.test_case "unknown items answer unknown" `Quick (fun () ->
        let idx = Hli_core.Query.build (fig2_entry ()) in
        Alcotest.(check bool) "unknown" true
          (Hli_core.Query.get_equiv_acc idx 999 6 = Hli_core.Query.Equiv_unknown));
  ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* random files come from the shared generator (test/testgen.ml), which
   the fuzz harness also uses; ~allow_zero adds the Some 0 boundary
   values, which only the container's option tags keep apart from None.
   The round-trip name predates the HLI3 magic: HLI2 introduced the
   option tags this property exercises. *)
let serialize_props =
  [
    QCheck.Test.make ~count:200 ~name:"HLI2 round-trip (incl. Some 0)"
      (QCheck.make (Testgen.gen_file ~allow_zero:true ())) (fun f ->
        Hli_core.Serialize.of_bytes (Hli_core.Serialize.to_bytes f) = f);
    (* Table 1's size is the old HLI1 encoder's length, on files with
       Some 0 fields *)
    QCheck.Test.make ~count:500 ~name:"size_bytes = Old_hli1 length"
      (QCheck.make (Testgen.gen_file ~allow_zero:true ())) (fun f ->
        Hli_core.Serialize.size_bytes f
        = String.length (Testgen.Old_hli1.to_bytes f));
    QCheck.Test.make ~count:100 ~name:"size is deterministic"
      (QCheck.make (Testgen.gen_file ())) (fun f ->
        Hli_core.Serialize.size_bytes f = Hli_core.Serialize.size_bytes f);
  ]

let serialize_tests =
  [
    Alcotest.test_case "bad magic rejected" `Quick (fun () ->
        (* garbage, a short input, and the retired HLI1/HLI2/HLI3 magics
           (an empty container under each) *)
        List.iter
          (fun b ->
            match Hli_core.Serialize.of_bytes b with
            | exception Hli_core.Serialize.Corrupt c ->
                Alcotest.(check string) (String.escaped b) "E0610"
                  c.Hli_core.Serialize.c_code
            | _ -> Alcotest.failf "accepted %S" b)
          [ "NOPE"; ""; "HLI"; "HLI1\000"; "HLI2\000"; "HLI3\000" ];
        (* HLI3, whose alias and LCDD entries carried probabilities, is
           named in the rejection *)
        match Hli_core.Serialize.of_bytes "HLI3\000" with
        | exception Hli_core.Serialize.Corrupt c ->
            Alcotest.(check string) "message" "bad magic \"HLI3\" (want HLI4)"
              c.Hli_core.Serialize.c_msg
        | _ -> Alcotest.fail "accepted HLI3");
    Alcotest.test_case "truncation rejected" `Quick (fun () ->
        let f = { T.entries = [ fig2_entry () ] } in
        let b = Hli_core.Serialize.to_bytes f in
        let cut = String.sub b 0 (String.length b - 3) in
        match Hli_core.Serialize.of_bytes cut with
        | exception Hli_core.Serialize.Corrupt _ -> ()
        | _ -> Alcotest.fail "accepted truncated");
    Alcotest.test_case "trailing bytes rejected" `Quick (fun () ->
        (* after the container, and inside a CRC-valid entry payload *)
        let payload =
          Hli_core.Serialize.entry_to_bytes (fig2_entry ()) ^ "x"
        in
        List.iter
          (fun b ->
            match Hli_core.Serialize.of_bytes b with
            | exception Hli_core.Serialize.Corrupt c ->
                Alcotest.(check string) "code" "E0616"
                  c.Hli_core.Serialize.c_code
            | _ -> Alcotest.fail "accepted trailing")
          [
            Hli_core.Serialize.to_bytes { T.entries = [] } ^ "x";
            Hli_core.Serialize.container_of_payloads [ payload ];
          ]);
    Alcotest.test_case "figure-2 entry round-trips" `Quick (fun () ->
        let f = { T.entries = [ fig2_entry () ] } in
        Alcotest.(check bool) "eq" true
          (Hli_core.Serialize.of_bytes (Hli_core.Serialize.to_bytes f) = f));
  ]

(* ------------------------------------------------------------------ *)
(* Text rendering (hli_dump output)                                    *)
(* ------------------------------------------------------------------ *)

let dump_tests =
  [
    Alcotest.test_case "golden text dump" `Quick
      (fun () ->
        (* exactly what [hli_dump --entry u] prints *)
        let e =
          {
            T.unit_name = "u";
            line_table =
              [ { T.line_no = 3; items = [ { T.item_id = 1; acc = T.Acc_store } ] } ];
            regions =
              [
                {
                  T.region_id = 1;
                  rtype = T.Region_loop;
                  parent = None;
                  first_line = 1;
                  last_line = 9;
                  eq_classes =
                    [
                      {
                        T.class_id = 1;
                        kind = T.Maybe;
                        desc = "a";
                        members = [ T.Member_item 1 ];
                      };
                    ];
                  aliases =
                    [
                      { T.alias_classes = [ 1; 2 ] };
                      { T.alias_classes = [ 2; 3 ] };
                    ];
                  lcdds =
                    [
                      {
                        T.lcdd_src = 1;
                        lcdd_dst = 1;
                        lcdd_dep = T.Dep_maybe;
                        lcdd_distance = Some 4;
                      };
                      {
                        T.lcdd_src = 1;
                        lcdd_dst = 2;
                        lcdd_dep = T.Dep_definite;
                        lcdd_distance = None;
                      };
                    ];
                  callrefmods = [];
                };
              ];
          }
        in
        let expected =
          String.concat "\n"
            [
              "unit u:";
              "  1 lines, 1 items, 1 regions";
              "  region 1 (loop, lines 1-9):";
              "    classes: c1? \"a\" = {i1}";
              "    aliases: {1, 2}; {2, 3}";
              "    lcdd: c1 -> c1 (maybe, d=4)";
              "          c1 -> c2 (definite, d=?)";
              "    calls: 0 entries";
              "";
            ]
        in
        Alcotest.(check string) "dump" expected
          (Hli_core.Serialize.to_text { T.entries = [ e ] }));
  ]

(* ------------------------------------------------------------------ *)
(* Serialization boundaries (container hardening)                      *)
(* ------------------------------------------------------------------ *)

let corrupt_code f =
  match f () with
  | exception Hli_core.Serialize.Corrupt c -> c.Hli_core.Serialize.c_code
  | _ -> "no-error"

(* a minimal region, for building targeted fixtures *)
let region ?(parent = None) ?(lcdds = []) id =
  {
    T.region_id = id;
    rtype = T.Region_loop;
    parent;
    first_line = 1;
    last_line = 9;
    eq_classes = [];
    aliases = [];
    lcdds;
    callrefmods = [];
  }

let boundary_tests =
  [
    Alcotest.test_case "varint boundaries round-trip" `Quick (fun () ->
        List.iter
          (fun v ->
            let b = Buffer.create 10 in
            Hli_core.Serialize.put_varint b v;
            let cur = { Hli_core.Serialize.data = Buffer.contents b; pos = 0 } in
            Alcotest.(check int)
              (Printf.sprintf "varint %d" v)
              v
              (Hli_core.Serialize.get_varint cur);
            Alcotest.(check int) "fully consumed" (Buffer.length b)
              cur.Hli_core.Serialize.pos)
          [ 0; 1; 127; 128; 16383; 16384; (1 lsl 62) - 1 ]);
    Alcotest.test_case "oversized varints rejected as E0612" `Quick (fun () ->
        (* 9 continuation bytes: may not loop to a 10th *)
        Alcotest.(check string) "all-continuation" "E0612"
          (corrupt_code (fun () ->
               Hli_core.Serialize.get_varint
                 { Hli_core.Serialize.data = String.make 9 '\xff'; pos = 0 }));
        (* 9th byte would push the value past 62 bits *)
        Alcotest.(check string) "63rd bit" "E0612"
          (corrupt_code (fun () ->
               Hli_core.Serialize.get_varint
                 {
                   Hli_core.Serialize.data = String.make 8 '\xff' ^ "\x40";
                   pos = 0;
                 }));
        (* ... while the largest representable value still decodes *)
        Alcotest.(check int) "max_int ok" max_int
          (Hli_core.Serialize.get_varint
             { Hli_core.Serialize.data = String.make 8 '\xff' ^ "\x3f"; pos = 0 }));
    Alcotest.test_case "absurd list/entry counts rejected as E0613" `Quick
      (fun () ->
        let huge =
          let b = Buffer.create 16 in
          Hli_core.Serialize.put_varint b max_int;
          Buffer.contents b
        in
        Alcotest.(check string) "entry count" "E0613"
          (corrupt_code (fun () ->
               Hli_core.Serialize.of_bytes ("HLI4" ^ huge)));
        (* a unit name, then a line-table length past the payload *)
        Alcotest.(check string) "list length" "E0613"
          (corrupt_code (fun () ->
               Hli_core.Serialize.entry_of_bytes ("\001u" ^ huge))));
    Alcotest.test_case "callrefmod bool tag > 1 rejected as E0614" `Quick
      (fun () ->
        let b = Buffer.create 8 in
        Buffer.add_char b '\000' (* Key_call_item *);
        Hli_core.Serialize.put_varint b 5;
        Buffer.add_char b '\002' (* invalid refmod_all *);
        Alcotest.(check string) "tag 2" "E0614"
          (corrupt_code (fun () ->
               Hli_core.Serialize.get_callrefmod
                 { Hli_core.Serialize.data = Buffer.contents b; pos = 0 })));
    Alcotest.test_case "CRC32 protects entry payloads (E0615)" `Quick (fun () ->
        let f = { T.entries = [ fig2_entry () ] } in
        let b = Bytes.of_string (Hli_core.Serialize.to_bytes f) in
        (* flip one payload bit, well past the magic + counts *)
        Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0x10));
        Alcotest.(check string) "flip" "E0615"
          (corrupt_code (fun () ->
               Hli_core.Serialize.of_bytes (Bytes.to_string b))));
    (* the name predates the HLI4 magic; the option tags it exercises
       are unchanged *)
    Alcotest.test_case "Some zero survives HLI3" `Quick
      (fun () ->
        let lcdd =
          {
            T.lcdd_src = 1;
            lcdd_dst = 1;
            lcdd_dep = T.Dep_definite;
            lcdd_distance = Some 0;
          }
        in
        let f =
          {
            T.entries =
              [
                {
                  T.unit_name = "z";
                  line_table = [];
                  regions =
                    [ region 1; region ~parent:(Some 0) ~lcdds:[ lcdd ] 2 ];
                };
              ];
          }
        in
        let f2 = Hli_core.Serialize.of_bytes (Hli_core.Serialize.to_bytes f) in
        Alcotest.(check bool) "preserved" true (f = f2);
        let r2 = List.nth (List.hd f2.T.entries).T.regions 1 in
        Alcotest.(check (option int)) "parent Some 0" (Some 0) r2.T.parent;
        Alcotest.(check (option int)) "distance Some 0" (Some 0)
          (List.hd r2.T.lcdds).T.lcdd_distance);
    Alcotest.test_case "empty file and empty tables round-trip" `Quick
      (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check bool) "rt" true
              (Hli_core.Serialize.of_bytes (Hli_core.Serialize.to_bytes f) = f))
          [
            { T.entries = [] };
            { T.entries = [ { T.unit_name = "e"; line_table = []; regions = [] } ] };
            { T.entries = [ { T.unit_name = "r"; line_table = []; regions = [ region 1 ] } ] };
          ]);
    Alcotest.test_case "HLI1 golden: size and E0610" `Quick
      (fun () ->
        (* one unit, one line with one store, one region with a class,
           an unknown-distance LCDD and a sub-region REF/MOD entry —
           byte-for-byte the output of the original HLI1 writer *)
        let golden =
          "HLI1" ^ "\x01" (* 1 entry *) ^ "\x01u" (* unit name *)
          ^ "\x01\x03\x01\x01\x01" (* line 3: item 1, store *)
          ^ "\x01" (* 1 region *)
          ^ "\x01\x00\x00\x01\x09" (* id 1, unit, no parent, lines 1-9 *)
          ^ "\x01\x02\x01\x01a\x01\x00\x01" (* class 2, maybe, "a", item 1 *)
          ^ "\x00" (* no aliases *)
          ^ "\x01\x02\x02\x01\x00" (* lcdd 2->2 maybe, distance None *)
          ^ "\x01\x01\x04\x01\x01\x02\x00" (* refmod: sub-region 4, all,
                                              ref [2], mod [] *)
        in
        let expected =
          {
            T.entries =
              [
                {
                  T.unit_name = "u";
                  line_table =
                    [
                      {
                        T.line_no = 3;
                        items = [ { T.item_id = 1; acc = T.Acc_store } ];
                      };
                    ];
                  regions =
                    [
                      {
                        T.region_id = 1;
                        rtype = T.Region_unit;
                        parent = None;
                        first_line = 1;
                        last_line = 9;
                        eq_classes =
                          [
                            {
                              T.class_id = 2;
                              kind = T.Maybe;
                              desc = "a";
                              members = [ T.Member_item 1 ];
                            };
                          ];
                        aliases = [];
                        lcdds =
                          [
                            {
                              T.lcdd_src = 2;
                              lcdd_dst = 2;
                              lcdd_dep = T.Dep_maybe;
                              lcdd_distance = None;
                            };
                          ];
                        callrefmods =
                          [
                            {
                              T.call_key = T.Key_sub_region 4;
                              ref_classes = [ 2 ];
                              mod_classes = [];
                              refmod_all = true;
                            };
                          ];
                      };
                    ];
                };
              ];
          }
        in
        (* the size oracle still emits exactly these bytes ... *)
        Alcotest.(check string) "oracle stable" golden
          (Testgen.Old_hli1.to_bytes expected);
        (* ... Table 1's size is their length ... *)
        Alcotest.(check int) "size_bytes" (String.length golden)
          (Hli_core.Serialize.size_bytes expected);
        (* ... and no reader accepts them any more *)
        Alcotest.(check string) "retired magic" "E0610"
          (corrupt_code (fun () -> Hli_core.Serialize.of_bytes golden)));
    Alcotest.test_case "size_bytes raises like HLI1" `Quick (fun () ->
        let diag_code f =
          match f () with
          | exception Diagnostics.Diagnostic d -> d.Diagnostics.code
          | _ -> "no-error"
        in
        let lcdd d =
          { T.lcdd_src = 1; lcdd_dst = 1; lcdd_dep = T.Dep_maybe; lcdd_distance = d }
        in
        let file ?(parent = None) lcdds =
          {
            T.entries =
              [
                {
                  T.unit_name = "n";
                  line_table = [];
                  regions = [ region ~parent ~lcdds 1 ];
                };
              ];
          }
        in
        List.iter
          (fun (what, f) ->
            Alcotest.(check string) what
              (diag_code (fun () -> Testgen.Old_hli1.to_bytes f))
              (diag_code (fun () -> Hli_core.Serialize.size_bytes f)))
          [
            ("negative distance", file [ lcdd (Some (-1)) ]);
            ("negative parent", file ~parent:(Some (-3)) []);
          ];
        Alcotest.(check string) "encoder raises E0601" "E0601"
          (diag_code (fun () ->
               Testgen.Old_hli1.to_bytes (file [ lcdd (Some (-1)) ]))));
    Alcotest.test_case "ids beyond the query image's u32 fields are E0637"
      `Quick (fun () ->
        let e = fig2_entry () in
        let huge = 1 lsl 40 in
        let bump_item le =
          { le with T.items = List.map (fun it -> { it with T.item_id = huge }) le.T.items }
        in
        List.iter
          (fun (what, e) ->
            Alcotest.(check (list string)) what [ "E0637" ]
              (List.sort_uniq compare
                 (List.map
                    (fun i -> i.Hli_core.Validate.i_code)
                    (Hli_core.Validate.check_file { T.entries = [ e ] }))))
          [
            ("item id", { e with T.line_table = List.map bump_item e.T.line_table });
            ( "region line",
              { e with T.regions = List.map (fun r -> { r with T.last_line = huge }) e.T.regions } );
          ];
        Alcotest.(check (list string)) "figure 2 is clean" []
          (List.map
             (fun i -> i.Hli_core.Validate.i_code)
             (Hli_core.Validate.check_file { T.entries = [ e ] })));
    Alcotest.test_case "post-unroll=4 entry round-trips losslessly" `Quick
      (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        ignore (Hli_core.Maintain.unroll m ~rid:4 ~factor:4);
        let e', _ = Hli_core.Maintain.commit m in
        let f = { T.entries = [ e' ] } in
        Alcotest.(check bool) "round-trip" true
          (Hli_core.Serialize.of_bytes (Hli_core.Serialize.to_bytes f) = f);
        Alcotest.(check int) "size_bytes = Old_hli1 length"
          (String.length (Testgen.Old_hli1.to_bytes f))
          (Hli_core.Serialize.size_bytes f));
  ]

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let maintain_tests =
  [
    Alcotest.test_case "delete_item removes everywhere" `Quick (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        Hli_core.Maintain.delete_item m 6;
        let e', idx = Hli_core.Maintain.commit m in
        Alcotest.(check bool) "gone from lines" true
          (not (List.mem 6 (T.all_items e')));
        Alcotest.(check (option int)) "no region" None
          (Hli_core.Query.get_region_of_item idx 6));
    Alcotest.test_case "deleting a whole class cascades" `Quick (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        (* item 7 (b[j-1]) is alone in its class; deleting it must drop
           the class and the LCDD entry pointing at it *)
        Hli_core.Maintain.delete_item m 7;
        let e', _ = Hli_core.Maintain.commit m in
        let r4 = Option.get (T.find_region e' 4) in
        Alcotest.(check int) "3 classes left" 3 (List.length r4.T.eq_classes);
        Alcotest.(check bool) "no dangling lcdd" true
          (List.for_all
             (fun l ->
               List.exists (fun c -> c.T.class_id = l.T.lcdd_src) r4.T.eq_classes
               && List.exists (fun c -> c.T.class_id = l.T.lcdd_dst) r4.T.eq_classes)
             r4.T.lcdds));
    Alcotest.test_case "gen_item inherits class and line" `Quick (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        let nid = Hli_core.Maintain.gen_item m ~like:6 ~line:19 in
        let e', idx = Hli_core.Maintain.commit m in
        Alcotest.(check bool) "fresh id" true (nid > 6);
        Alcotest.(check (option int)) "same region"
          (Hli_core.Query.get_region_of_item idx 6)
          (Hli_core.Query.get_region_of_item idx nid);
        Alcotest.(check bool) "same class" true
          (Hli_core.Query.get_equiv_acc idx 6 nid <> Hli_core.Query.Equiv_none);
        Alcotest.(check bool) "on line" true
          (List.exists (fun it -> it.T.item_id = nid) (T.items_of_line e' 19)));
    Alcotest.test_case "move_item_outward" `Quick (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        (* move the a[i] load (item 9) from region 4 out to region 3 *)
        Alcotest.(check bool) "moved" true
          (Hli_core.Maintain.move_item_outward m ~item:9 ~target_rid:3);
        let _, idx = Hli_core.Maintain.commit m in
        Alcotest.(check (option int)) "now in region 3" (Some 3)
          (Hli_core.Query.get_region_of_item idx 9));
    Alcotest.test_case "unroll remaps LCDD (Figure 6)" `Quick (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        let r = Hli_core.Maintain.unroll m ~rid:4 ~factor:2 in
        let e', idx = Hli_core.Maintain.commit m in
        (* every original item gained one copy *)
        List.iter
          (fun (_, arr) -> Alcotest.(check int) "2 copies" 2 (Array.length arr))
          r.Hli_core.Maintain.copies;
        let r4 = Option.get (T.find_region e' 4) in
        (* the b[j] -> b[j-1] d=1 dependence becomes: copy0 -> copy1
           same-iteration alias, and copy1 -> copy0 at distance 1 *)
        Alcotest.(check bool) "has wrapped lcdd d=1" true
          (List.exists
             (fun l -> l.T.lcdd_distance = Some 1 && l.T.lcdd_dep = T.Dep_definite)
             r4.T.lcdds);
        Alcotest.(check bool) "has new alias entry" true (r4.T.aliases <> []);
        (* copies of one item stay equivalent to their original class *)
        let orig, arr = List.hd r.Hli_core.Maintain.copies in
        Alcotest.(check bool) "copy equiv known" true
          (Hli_core.Query.get_equiv_acc idx orig arr.(1)
          <> Hli_core.Query.Equiv_unknown));
    Alcotest.test_case "unroll factor 1 rejected" `Quick (fun () ->
        let e = fig2_entry () in
        let m = Hli_core.Maintain.start e in
        match Hli_core.Maintain.unroll m ~rid:4 ~factor:1 with
        | exception Diagnostics.Diagnostic d ->
            Alcotest.(check string) "code" "E0701" d.Diagnostics.code
        | _ -> Alcotest.fail "accepted factor 1");
    Alcotest.test_case "a session without edits commits its own index" `Quick
      (fun () ->
        let e = fig2_entry () in
        let idx = Hli_core.Query.build e in
        let builds () =
          List.assoc "index_builds" (Hli_core.Query.cache_counters ())
        in
        let b0 = builds () in
        let m = Hli_core.Maintain.start ~index:idx e in
        let _, idx1 = Hli_core.Maintain.commit m in
        (* a refused move reads the index but edits nothing *)
        Alcotest.(check bool) "not moved" false
          (Hli_core.Maintain.move_item_outward m ~item:9 ~target_rid:4);
        let e2, idx2 = Hli_core.Maintain.commit m in
        Alcotest.(check bool) "same index" true (idx1 == idx && idx2 == idx);
        Alcotest.(check bool) "same entry" true (e2 == e);
        Alcotest.(check int) "no index built" b0 (builds ()));
    Alcotest.test_case "queries read the index of the last barrier" `Quick
      (fun () ->
        let module M = Hli_core.Maintain in
        let m = M.start (fig2_entry ()) in
        let region6 = Hli_core.Query.get_region_of_item (M.queried m) 6 in
        Alcotest.(check bool) "item 6 has a region" true (region6 <> None);
        M.delete_item m 6;
        Alcotest.(check (option int)) "the start index answers until the barrier"
          region6
          (Hli_core.Query.get_region_of_item (M.queried m) 6);
        Alcotest.(check bool) "the first barrier moves" true (M.barrier m);
        Alcotest.(check bool) "queries read the maintained index" true
          (M.queried m == snd (M.commit m));
        let q = M.queried m in
        Alcotest.(check bool) "a second barrier changes nothing" false
          (M.barrier m);
        Alcotest.(check bool) "queried index kept" true (M.queried m == q);
        let e' = fst (M.commit m) in
        let region9 =
          List.find
            (fun r ->
              List.exists
                (fun c -> List.mem (T.Member_item 9) c.T.members)
                r.T.eq_classes)
            e'.T.regions
        in
        Alcotest.(check bool) "item 9's region has a parent" true
          (region9.T.parent <> None);
        Alcotest.(check (option int)) "hoist target of item 9" region9.T.parent
          (M.hoist_target m 9));
  ]
  @ List.map
      (fun (name, edit, probe) ->
        Alcotest.test_case ("commit after " ^ name ^ " rebuilds the index")
          `Quick (fun () ->
            let e = fig2_entry () in
            let idx = Hli_core.Query.build e in
            ignore (Hli_core.Query.get_equiv_acc idx 6 9);
            Alcotest.(check bool) "memo filled" true
              (Hli_core.Query.memo_size idx > 0);
            let m = Hli_core.Maintain.start ~index:idx e in
            edit m;
            Alcotest.(check int) "watched memo dropped" 0
              (Hli_core.Query.memo_size idx);
            let e', idx' = Hli_core.Maintain.commit m in
            Alcotest.(check bool) "new index" true (idx' != idx);
            probe idx';
            (* the rebuilt index answers like a fresh build of the edit *)
            let fresh = Hli_core.Query.build e' in
            let items = T.all_items e' in
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    Alcotest.(check bool) "equiv" true
                      (Hli_core.Query.get_equiv_acc idx' a b
                      = Hli_core.Query.get_equiv_acc fresh a b))
                  items)
              items;
            let _, idx'' = Hli_core.Maintain.commit m in
            Alcotest.(check bool) "kept until the next edit" true (idx'' == idx')))
      [
        ( "delete_item",
          (fun m -> Hli_core.Maintain.delete_item m 6),
          fun idx ->
            Alcotest.(check (option int)) "deleted" None
              (Hli_core.Query.get_region_of_item idx 6) );
        ( "move_item_outward",
          (fun m ->
            Alcotest.(check bool) "moved" true
              (Hli_core.Maintain.move_item_outward m ~item:9 ~target_rid:3)),
          fun idx ->
            Alcotest.(check (option int)) "now in region 3" (Some 3)
              (Hli_core.Query.get_region_of_item idx 9) );
        (let copies = ref [] in
         ( "unroll",
           (fun m ->
             copies :=
               (Hli_core.Maintain.unroll m ~rid:4 ~factor:2).Hli_core.Maintain.copies),
           fun idx ->
             Alcotest.(check bool) "some copies" true (!copies <> []);
             List.iter
               (fun (_, arr) ->
                 Alcotest.(check (option int)) "copy in the loop" (Some 4)
                   (Hli_core.Query.get_region_of_item idx arr.(1)))
               !copies ));
      ]

(* ------------------------------------------------------------------ *)
(* Duplicate item detection                                            *)
(* ------------------------------------------------------------------ *)

(* A malformed entry a buggy front end could emit: item 5 appears on
   two lines of the line table, and item 7 is a member of two
   equivalence classes. *)
let dup_entry () =
  let item id acc = { T.item_id = id; acc } in
  {
    T.unit_name = "dup";
    line_table =
      [
        { T.line_no = 1; items = [ item 5 T.Acc_load; item 6 T.Acc_store ] };
        { T.line_no = 2; items = [ item 5 T.Acc_load; item 7 T.Acc_load ] };
      ];
    regions =
      [
        {
          T.region_id = 1;
          rtype = T.Region_unit;
          parent = None;
          first_line = 1;
          last_line = 2;
          eq_classes =
            [
              {
                T.class_id = 100;
                kind = T.Definitely;
                members = [ T.Member_item 6; T.Member_item 7 ];
                desc = "x";
              };
              {
                T.class_id = 101;
                kind = T.Maybe;
                members = [ T.Member_item 7 ];
                desc = "y";
              };
            ];
          aliases = [];
          lcdds = [];
          callrefmods = [];
        };
      ];
  }

let duplicate_tests =
  [
    Alcotest.test_case "duplicated ids are reported sorted, once each" `Quick
      (fun () ->
        let idx = Hli_core.Query.build (dup_entry ()) in
        Alcotest.(check (list int))
          "dups" [ 5; 7 ]
          (Hli_core.Query.duplicate_items idx));
    Alcotest.test_case "well-formed entries report none" `Quick (fun () ->
        let idx = Hli_core.Query.build (fig2_entry ()) in
        Alcotest.(check (list int))
          "no dups" []
          (Hli_core.Query.duplicate_items idx));
  ]

(* ------------------------------------------------------------------ *)
(* The per-function on-disk cache (Harness.Pipeline)                   *)
(* ------------------------------------------------------------------ *)

let cache_src mid =
  "int g;\n"
  ^ Printf.sprintf "int leaf(int n) { g = g + n; return n + %d; }\n" mid
  ^ "int caller(int n) { return leaf(n) + 1; }\n"
  ^ "int lone(int n) { return n * 7; }\n"
  ^ "int main() { return caller(2) + lone(3); }\n"

let with_cache_dir f =
  let dir =
    Filename.temp_file "hli-cache-test" ""
  in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let cache_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hlie")
  |> List.sort compare

let frontend_bytes ?config src =
  let h = Harness.Pipeline.frontend ?config src in
  Hli_core.Serialize.to_bytes { T.entries = h.Driver.Pass.h_entries }

let cache_config ?(max = None) dir =
  { Harness.Pipeline.default_config with hli_cache = Some dir; hli_cache_max = max }

let cache_tests =
  [
    Alcotest.test_case "warm replay is byte-identical, entry-per-function"
      `Quick (fun () ->
        with_cache_dir (fun dir ->
            let config = cache_config dir in
            let uncached = frontend_bytes (cache_src 1) in
            let cold = frontend_bytes ~config (cache_src 1) in
            Alcotest.(check int) "one entry file per function" 4
              (List.length (cache_files dir));
            let warm = frontend_bytes ~config (cache_src 1) in
            Alcotest.(check bool) "cold == uncached" true (cold = uncached);
            Alcotest.(check bool) "warm == uncached" true (warm = uncached);
            Alcotest.(check int) "warm writes nothing" 4
              (List.length (cache_files dir))));
    Alcotest.test_case "a one-function edit rebuilds one entry" `Quick
      (fun () ->
        with_cache_dir (fun dir ->
            let config = cache_config dir in
            ignore (frontend_bytes ~config (cache_src 1));
            let before = cache_files dir in
            (* leaf's constant changes; its REF/MOD skeleton doesn't, so
               caller/lone/main replay from the same entries *)
            let edited = frontend_bytes ~config (cache_src 2) in
            Alcotest.(check bool) "edited == uncached rebuild" true
              (edited = frontend_bytes (cache_src 2));
            let after = cache_files dir in
            Alcotest.(check int) "exactly one new entry"
              (List.length before + 1)
              (List.length after);
            Alcotest.(check bool) "old entries still present" true
              (List.for_all (fun f -> List.mem f after) before)));
    Alcotest.test_case "--passes configs share front-end entries" `Quick
      (fun () ->
        (* regression for the cache-key audit: the optional-pass spec is
           back-end-only and deliberately outside the key — a run with
           --passes must hit the entries a pass-less run stored (and
           vice versa), never alias to wrong ones *)
        with_cache_dir (fun dir ->
            ignore (frontend_bytes ~config:(cache_config dir) (cache_src 1));
            let before = cache_files dir in
            let passes_config =
              {
                (Harness.Pipeline.config_of_passes "cse,licm,unroll=2") with
                hli_cache = Some dir;
              }
            in
            let h = frontend_bytes ~config:passes_config (cache_src 1) in
            Alcotest.(check bool) "same front-end product" true
              (h = frontend_bytes (cache_src 1));
            Alcotest.(check (list string)) "no new entries written" before
              (cache_files dir);
            let c =
              Harness.Pipeline.compile ~config:passes_config (cache_src 1)
            in
            let fresh =
              Harness.Pipeline.compile
                ~config:(Harness.Pipeline.config_of_passes "cse,licm,unroll=2")
                (cache_src 1)
            in
            Alcotest.(check string) "cached+passes == fresh+passes"
              (Hli_core.Serialize.to_text fresh.Harness.Pipeline.hli)
              (Hli_core.Serialize.to_text c.Harness.Pipeline.hli)));
    Alcotest.test_case "ablation is part of the key" `Quick (fun () ->
        with_cache_dir (fun dir ->
            ignore (frontend_bytes ~config:(cache_config dir) (cache_src 1));
            let n = List.length (cache_files dir) in
            let ab =
              List.find
                (fun a -> a.Driver.Variant.ab_name = "merge-off")
                Driver.Variant.ablations
            in
            let config =
              { (cache_config dir) with Harness.Pipeline.ablation = ab }
            in
            ignore (frontend_bytes ~config (cache_src 1));
            Alcotest.(check int) "ablated run stores its own entries" (2 * n)
              (List.length (cache_files dir))));
    Alcotest.test_case "back-end ablations share the front-end entries"
      `Quick (fun () ->
        (* the key holds the TBLCONST options, not the ablation name:
           lsq-off and hli-only change only the back end *)
        with_cache_dir (fun dir ->
            ignore (Harness.Pipeline.compile ~config:(cache_config dir) (cache_src 1));
            let before = cache_files dir in
            List.iter
              (fun ab ->
                let tm = Harness.Telemetry.create () in
                ignore
                  (Harness.Pipeline.compile
                     ~config:{ (cache_config dir) with Harness.Pipeline.ablation = ab }
                     ~tm (cache_src 1));
                let name = ab.Driver.Variant.ab_name in
                Alcotest.(check (pair int int))
                  (name ^ ": hits, misses") (4, 0)
                  ( Harness.Telemetry.counter tm "hli_cache_hits",
                    Harness.Telemetry.counter tm "hli_cache_misses" );
                Alcotest.(check (list string))
                  (name ^ ": no entries written") before (cache_files dir))
              [
                Driver.Variant.resolve "lsq-off";
                Driver.Variant.resolve "hli-only";
              ]));
    Alcotest.test_case "size cap trims the oldest entries" `Quick (fun () ->
        with_cache_dir (fun dir ->
            (* cap of 1 byte: every miss-filling compile trims the
               directory back down to (at most) its newest entry *)
            let config = cache_config ~max:(Some 1) dir in
            ignore (frontend_bytes ~config (cache_src 1));
            (* every entry is bigger than the cap, so the post-write trim
               drains the directory completely *)
            Alcotest.(check (list string)) "trim drained the cache" []
              (cache_files dir);
            (* a capped cache still compiles correctly *)
            Alcotest.(check bool) "capped warm run still correct" true
              (frontend_bytes ~config (cache_src 1)
              = frontend_bytes (cache_src 1))));
    Alcotest.test_case "trim ties break on path; concurrent trims survive"
      `Quick (fun () ->
        with_cache_dir (fun dir ->
            let mk name =
              let p = Filename.concat dir name in
              Out_channel.with_open_bin p (fun oc ->
                  Out_channel.output_string oc (String.make 10 'x'));
              p
            in
            let paths = List.map mk [ "a.hlie"; "b.hlie"; "c.hlie"; "d.hlie" ] in
            (* identical mtimes: on a 1s-granularity filesystem a whole
               edit storm ties, so only the secondary path sort keeps
               eviction deterministic *)
            let t0 = Unix.time () -. 60.0 in
            List.iter (fun p -> Unix.utimes p t0 t0) paths;
            Harness.Pipeline.cache_trim dir ~max_bytes:(Some 20);
            Alcotest.(check (list string))
              "lexicographically smallest paths evicted first"
              [ "c.hlie"; "d.hlie" ]
              (List.sort compare (Array.to_list (Sys.readdir dir)));
            (* two trims racing stat/unlink over the same files: both
               must finish silently (a file the other trim already
               removed is ENOENT at unlink, not an error) *)
            let more =
              List.map mk (List.init 30 (Printf.sprintf "e%02d.hlie"))
            in
            List.iter (fun p -> Unix.utimes p t0 t0) more;
            let doms =
              List.init 2 (fun _ ->
                  Domain.spawn (fun () ->
                      Harness.Pipeline.cache_trim dir ~max_bytes:(Some 1)))
            in
            List.iter Domain.join doms;
            Alcotest.(check (list string)) "concurrent trims drained" []
              (List.sort compare (Array.to_list (Sys.readdir dir)))));
    Alcotest.test_case "trim leaves emitted .hli files alone" `Quick
      (fun () ->
        with_cache_dir (fun dir ->
            (* hlic --emit-hli and bench emit-hli write .hli files; a
               cache pointed at the same directory must not evict them *)
            let mk name =
              Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
                  Out_channel.output_string oc (String.make 10 'x'))
            in
            List.iter mk [ "old.hlie"; "prog.hli" ];
            Harness.Pipeline.cache_trim dir ~max_bytes:(Some 1);
            Alcotest.(check (list string)) "only the cache entry evicted"
              [ "prog.hli" ]
              (List.sort compare (Array.to_list (Sys.readdir dir)))));
  ]

let () =
  Alcotest.run "hli"
    [
      ("query", query_tests);
      ("serialize", serialize_tests);
      ("text-dump", dump_tests);
      ("serialize-boundary", boundary_tests);
      ("serialize-props", List.map QCheck_alcotest.to_alcotest serialize_props);
      ("maintain", maintain_tests);
      ("duplicates", duplicate_tests);
      ("hli-cache", cache_tests);
    ]

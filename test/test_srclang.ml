(* Unit tests for the mini-C front end: lexer, parser, type checker. *)

open Srclang

let tok_list src = List.map fst (Lexer.tokenize src)

let check_tokens name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string))
        name expected
        (List.map Token.to_string (tok_list src)))

let lexer_tests =
  [
    check_tokens "operators" "a += b << 2 && !c"
      [ "a"; "+="; "b"; "<<"; "2"; "&&"; "!"; "c"; "<eof>" ];
    check_tokens "comments" "x /* skip\nme */ = // eol\n1;"
      [ "x"; "="; "1"; ";"; "<eof>" ];
    check_tokens "floats" "1.5 2. 3e2 4.5e-1 7"
      [ "1.5"; "2."; "300."; "0.45"; "7"; "<eof>" ];
    check_tokens "keywords vs idents" "int intx for fort"
      [ "int"; "intx"; "for"; "fort"; "<eof>" ];
    Alcotest.test_case "line numbers" `Quick (fun () ->
        let toks = Lexer.tokenize "a\nbb\n  c" in
        let lines = List.map (fun (_, l) -> l.Loc.line) toks in
        Alcotest.(check (list int)) "lines" [ 1; 2; 3; 3 ] lines);
    Alcotest.test_case "unterminated comment" `Quick (fun () ->
        match Lexer.tokenize "/* oops" with
        | exception Diagnostics.Diagnostic d ->
            Alcotest.(check string) "code" "E0101" d.Diagnostics.code;
            Alcotest.(check int) "line" 1 d.Diagnostics.line;
            Alcotest.(check int) "col" 1 d.Diagnostics.col
        | _ -> Alcotest.fail "expected a lex diagnostic");
  ]

(* The lexer before it stopped allocating a [char option] per peek: the
   new one must give the same tokens, locations and diagnostics. *)
module Old_lexer = struct
  (* lexical errors are structured diagnostics, code E0101 *)
  let err (l : Loc.t) fmt =
    Diagnostics.error ~line:l.Loc.line ~col:l.Loc.col ~code:"E0101"
      ~phase:Diagnostics.Lex fmt

  type state = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable col : int;
  }

  let make src = { src; pos = 0; line = 1; col = 1 }

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let peek2 st =
    if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

  let advance st =
    (match peek st with
    | Some '\n' ->
        st.line <- st.line + 1;
        st.col <- 1
    | Some _ -> st.col <- st.col + 1
    | None -> ());
    st.pos <- st.pos + 1

  let loc st = Loc.make ~line:st.line ~col:st.col

  let is_digit c = c >= '0' && c <= '9'
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  let rec skip_ws_and_comments st =
    match peek st with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance st;
        skip_ws_and_comments st
    | Some '/' -> (
        match peek2 st with
        | Some '/' ->
            let rec to_eol () =
              match peek st with
              | Some '\n' | None -> ()
              | Some _ ->
                  advance st;
                  to_eol ()
            in
            to_eol ();
            skip_ws_and_comments st
        | Some '*' ->
            let start = loc st in
            advance st;
            advance st;
            let rec to_close () =
              match (peek st, peek2 st) with
              | Some '*', Some '/' ->
                  advance st;
                  advance st
              | None, _ -> err start "unterminated comment"
              | Some _, _ ->
                  advance st;
                  to_close ()
            in
            to_close ();
            skip_ws_and_comments st
        | Some _ | None -> ())
    | Some _ | None -> ()

  let keyword_of_ident = function
    | "int" -> Some Token.KW_INT
    | "double" -> Some Token.KW_DOUBLE
    | "void" -> Some Token.KW_VOID
    | "if" -> Some Token.KW_IF
    | "else" -> Some Token.KW_ELSE
    | "while" -> Some Token.KW_WHILE
    | "for" -> Some Token.KW_FOR
    | "return" -> Some Token.KW_RETURN
    | _ -> None

  let lex_number st =
    let start = st.pos in
    let start_loc = loc st in
    let rec digits () =
      match peek st with
      | Some c when is_digit c ->
          advance st;
          digits ()
      | _ -> ()
    in
    digits ();
    let is_float =
      match (peek st, peek2 st) with
      | Some '.', Some c when is_digit c -> true
      | Some '.', (Some _ | None) -> true
      | Some ('e' | 'E'), _ -> true
      | _ -> false
    in
    if is_float then begin
      (match peek st with
      | Some '.' ->
          advance st;
          digits ()
      | _ -> ());
      (match peek st with
      | Some ('e' | 'E') ->
          advance st;
          (match peek st with
          | Some ('+' | '-') -> advance st
          | _ -> ());
          digits ()
      | _ -> ());
      let text = String.sub st.src start (st.pos - start) in
      match float_of_string_opt text with
      | Some f -> Token.FLOAT_LIT f
      | None -> err start_loc "bad float literal %s" text
    end
    else
      let text = String.sub st.src start (st.pos - start) in
      match int_of_string_opt text with
      | Some n -> Token.INT_LIT n
      | None -> err start_loc "bad int literal %s" text

  let lex_ident st =
    let start = st.pos in
    let rec go () =
      match peek st with
      | Some c when is_ident_char c ->
          advance st;
          go ()
      | _ -> ()
    in
    go ();
    let text = String.sub st.src start (st.pos - start) in
    match keyword_of_ident text with Some kw -> kw | None -> Token.IDENT text

  (* Operators and punctuation; longest match first. *)
  let lex_op st c =
    let l = loc st in
    let two tok =
      advance st;
      advance st;
      tok
    in
    let one tok =
      advance st;
      tok
    in
    match (c, peek2 st) with
    | '+', Some '+' -> two Token.PLUS_PLUS
    | '+', Some '=' -> two Token.PLUS_ASSIGN
    | '+', _ -> one Token.PLUS
    | '-', Some '-' -> two Token.MINUS_MINUS
    | '-', Some '=' -> two Token.MINUS_ASSIGN
    | '-', _ -> one Token.MINUS
    | '*', Some '=' -> two Token.STAR_ASSIGN
    | '*', _ -> one Token.STAR
    | '/', Some '=' -> two Token.SLASH_ASSIGN
    | '/', _ -> one Token.SLASH
    | '%', _ -> one Token.PERCENT
    | '<', Some '=' -> two Token.LE
    | '<', Some '<' -> two Token.SHL
    | '<', _ -> one Token.LT
    | '>', Some '=' -> two Token.GE
    | '>', Some '>' -> two Token.SHR
    | '>', _ -> one Token.GT
    | '=', Some '=' -> two Token.EQ
    | '=', _ -> one Token.ASSIGN
    | '!', Some '=' -> two Token.NE
    | '!', _ -> one Token.BANG
    | '&', Some '&' -> two Token.AMP_AMP
    | '&', _ -> one Token.AMP
    | '|', Some '|' -> two Token.BAR_BAR
    | '|', _ -> one Token.BAR
    | '^', _ -> one Token.CARET
    | '~', _ -> one Token.TILDE
    | '(', _ -> one Token.LPAREN
    | ')', _ -> one Token.RPAREN
    | '{', _ -> one Token.LBRACE
    | '}', _ -> one Token.RBRACE
    | '[', _ -> one Token.LBRACKET
    | ']', _ -> one Token.RBRACKET
    | ';', _ -> one Token.SEMI
    | ',', _ -> one Token.COMMA
    | _ -> err l "unexpected character %C" c

  let next_token st =
    skip_ws_and_comments st;
    let l = loc st in
    match peek st with
    | None -> (Token.EOF, l)
    | Some c when is_digit c -> (lex_number st, l)
    | Some c when is_ident_start c -> (lex_ident st, l)
    | Some c -> (lex_op st c, l)

  (** Tokenize the whole input.  The trailing [EOF] token is included. *)
  let tokenize src =
    let st = make src in
    let rec go acc =
      let tok, l = next_token st in
      let acc = (tok, l) :: acc in
      match tok with Token.EOF -> List.rev acc | _ -> go acc
    in
    go []
end

let lex_result tokenize src =
  match tokenize src with
  | toks -> Ok toks
  | exception Diagnostics.Diagnostic d -> Error d

let same_as_old_lexer src =
  lex_result Lexer.tokenize src = lex_result Old_lexer.tokenize src

(* Byte strings built from the fragments where the two lexers could part:
   NUL inside and outside comments, unterminated comments, a slash at
   the end, and number prefixes ending early. *)
let gen_lex_bytes =
  QCheck.Gen.(
    let fragment =
      frequency
        [
          ( 6,
            oneofl
              [ "\000"; "/"; "*"; "/*"; "*/"; "//"; "\n"; " "; "\t"; "\r"; "1"; "1.";
                "1e"; "1e+"; "1e-"; "."; "e"; "+"; "-"; "="; "<"; ">"; "&"; "|"; "!";
                "x"; "_"; "9"; "["; ";"; "@" ] );
          (1, map (String.make 1) char);
        ]
    in
    list_size (int_range 0 12) fragment >|= String.concat "")

let lexer_oracle_tests =
  [
    Alcotest.test_case "workloads lex as before" `Quick (fun () ->
        List.iter
          (fun w ->
            let name = w.Workloads.Workload.name and src = w.Workloads.Workload.source in
            Alcotest.(check bool) name true (same_as_old_lexer src);
            (* every 11th prefix, so the input also ends inside tokens
               and comments *)
            for k = 0 to String.length src / 11 do
              if not (same_as_old_lexer (String.sub src 0 (11 * k))) then
                Alcotest.failf "%s: prefix of %d bytes" name (11 * k)
            done)
          Workloads.Registry.all);
    Alcotest.test_case "edge inputs lex as before" `Quick (fun () ->
        List.iter
          (fun src ->
            Alcotest.(check bool) (String.escaped src) true (same_as_old_lexer src))
          [ ""; "\000"; "a\000b"; "/* \000 */ x"; "// \000\nx"; "/* oops"; "/*"; "/* *";
            "/"; "x /"; "1."; "1e"; "1e+"; "1.e"; "1.5e-"; "12abc";
            "99999999999999999999" ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:5000 ~name:"random bytes lex as before"
         (QCheck.make ~print:String.escaped gen_lex_bytes) same_as_old_lexer);
  ]

let pp_expr ppf (e : Ast.expr) =
  let rec go ppf (e : Ast.expr) =
    match e.Ast.edesc with
    | Ast.Int_lit n -> Fmt.int ppf n
    | Ast.Float_lit f -> Fmt.float ppf f
    | Ast.Var v -> Fmt.string ppf v
    | Ast.Index (a, i) -> Fmt.pf ppf "%a[%a]" go a go i
    | Ast.Deref a -> Fmt.pf ppf "(*%a)" go a
    | Ast.Addr a -> Fmt.pf ppf "(&%a)" go a
    | Ast.Binop (op, a, b) ->
        Fmt.pf ppf "(%a %s %a)" go a (Ast.binop_to_string op) go b
    | Ast.Unop (op, a) -> Fmt.pf ppf "(%s%a)" (Ast.unop_to_string op) go a
    | Ast.Call (f, args) ->
        Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") go) args
    | Ast.Cast (t, a) -> Fmt.pf ppf "((%a)%a)" Types.pp t go a
  in
  go ppf e

let expr_str src = Fmt.str "%a" pp_expr (Parser.expr_of_string src)

let check_expr name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (expr_str src))

let parser_tests =
  [
    check_expr "precedence mul over add" "a + b * c" "(a + (b * c))";
    check_expr "precedence shift vs cmp" "a << 1 < b" "((a << 1) < b)";
    check_expr "logical precedence" "a && b || c && d" "((a && b) || (c && d))";
    check_expr "unary binds tight" "-a * b" "((-a) * b)";
    check_expr "nested index" "m[i][j+1]" "m[i][(j + 1)]";
    check_expr "deref arith" "*(p + 2)" "(*(p + 2))";
    check_expr "address of element" "&a[i]" "(&a[i])";
    check_expr "call args" "f(a, b + 1, g(c))" "f(a, (b + 1), g(c))";
    check_expr "cast" "(double)n + 1.0" "(((double)n) + 1)";
    check_expr "bitwise layering" "a | b ^ c & d" "(a | (b ^ (c & d)))";
    Alcotest.test_case "program structure" `Quick (fun () ->
        let p =
          Parser.program_of_string
            "int g;\nint f(int x) { return x + g; }\nint main() { g = 1; return f(2); }"
        in
        Alcotest.(check int) "3 tops" 3 (List.length p.Ast.tops));
    Alcotest.test_case "for desugar ++" `Quick (fun () ->
        let p = Parser.program_of_string "void f() { int i; for (i = 0; i < 3; i++) { } }" in
        match p.Ast.tops with
        | [ Ast.Tfunc f ] -> (
            match List.rev f.Ast.fbody with
            | { Ast.sdesc = Ast.Sfor (Some _, Some _, Some step, _); _ } :: _ -> (
                match step.Ast.sdesc with
                | Ast.Sassign (_, { Ast.edesc = Ast.Binop (Ast.Add, _, _); _ }) -> ()
                | _ -> Alcotest.fail "step not desugared to i = i + 1")
            | _ -> Alcotest.fail "no for")
        | _ -> Alcotest.fail "no func");
    Alcotest.test_case "array params decay" `Quick (fun () ->
        let p = Parser.program_of_string "void f(double a[10]) { }" in
        match p.Ast.tops with
        | [ Ast.Tfunc { Ast.fparams = [ (_, Types.Tptr Types.Tdouble) ]; _ } ] -> ()
        | _ -> Alcotest.fail "param did not decay");
    Alcotest.test_case "parse error has location" `Quick (fun () ->
        match Parser.program_of_string "int f() { return + ; }" with
        | exception Diagnostics.Diagnostic d ->
            Alcotest.(check string) "code" "E0201" d.Diagnostics.code;
            Alcotest.(check int) "line" 1 d.Diagnostics.line
        | _ -> Alcotest.fail "expected error");
  ]

let check_ty name src fname expected_ty =
  Alcotest.test_case name `Quick (fun () ->
      let p = Typecheck.program_of_string src in
      let f = Option.get (Tast.find_func p fname) in
      match List.rev f.Tast.body with
      | { Tast.sdesc = Tast.Sreturn (Some e); _ } :: _ ->
          Alcotest.(check string) name expected_ty (Types.to_string e.Tast.ty)
      | _ -> Alcotest.fail "no return"

)

let typecheck_tests =
  [
    check_ty "int arith" "int f() { return 1 + 2 * 3; }" "f" "int";
    check_ty "promotion to double"
      "double f() { int n; n = 2; return n + 1.5; }" "f" "double";
    check_ty "pointer arith keeps type"
      "double g[4];\ndouble *f() { return g + 2; }" "f" "double*";
    check_ty "comparison is int"
      "int f() { double x; x = 1.0; return x < 2.0; }" "f" "int";
    Alcotest.test_case "implicit cast inserted" `Quick (fun () ->
        let p = Typecheck.program_of_string "double f(int n) { return n; }" in
        let f = Option.get (Tast.find_func p "f") in
        match f.Tast.body with
        | [ { Tast.sdesc = Tast.Sreturn (Some { Tast.desc = Tast.Cast (Types.Tdouble, _); _ }); _ } ] -> ()
        | _ -> Alcotest.fail "no cast");
    Alcotest.test_case "addr_taken is recorded" `Quick (fun () ->
        let p =
          Typecheck.program_of_string
            "void g(int *p) { }\nvoid f() { int x; int y; g(&x); y = 1; }"
        in
        let f = Option.get (Tast.find_func p "f") in
        let x = List.find (fun s -> s.Symbol.name = "x") f.Tast.locals in
        let y = List.find (fun s -> s.Symbol.name = "y") f.Tast.locals in
        Alcotest.(check bool) "x taken" true x.Symbol.addr_taken;
        Alcotest.(check bool) "y not" false y.Symbol.addr_taken;
        Alcotest.(check bool) "x resident" true (Symbol.memory_resident x);
        Alcotest.(check bool) "y pseudo" false (Symbol.memory_resident y));
    Alcotest.test_case "deref normalized to subscript" `Quick (fun () ->
        let p =
          Typecheck.program_of_string "int f(int *p, int i) { return *(p + i); }"
        in
        let f = Option.get (Tast.find_func p "f") in
        match f.Tast.body with
        | [ { Tast.sdesc = Tast.Sreturn (Some { Tast.desc = Tast.Lval lv; _ }); _ } ] -> (
            match lv.Tast.ldesc with
            | Tast.Lindex (_, _) -> ()
            | _ -> Alcotest.fail "not normalized")
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "undeclared variable rejected" `Quick (fun () ->
        match Typecheck.program_of_string "int f() { return nope; }" with
        | exception Diagnostics.Diagnostic d ->
            Alcotest.(check string) "code" "E0301" d.Diagnostics.code
        | _ -> Alcotest.fail "accepted bad program");
    Alcotest.test_case "bad arity rejected" `Quick (fun () ->
        match
          Typecheck.program_of_string "int g(int a) { return a; }\nint f() { return g(); }"
        with
        | exception Diagnostics.Diagnostic _ -> ()
        | _ -> Alcotest.fail "accepted bad call");
    Alcotest.test_case "global initializers" `Quick (fun () ->
        let p = Typecheck.program_of_string "int a = -3;\ndouble b = 2;\nint main() { return 0; }" in
        match p.Tast.globals with
        | [ (_, Some (Tast.Ginit_int -3)); (_, Some (Tast.Ginit_float 2.0)) ] -> ()
        | _ -> Alcotest.fail "bad initializers");
    Alcotest.test_case "types size_of" `Quick (fun () ->
        Alcotest.(check int) "int" 4 (Types.size_of Types.Tint);
        Alcotest.(check int) "double" 8 (Types.size_of Types.Tdouble);
        Alcotest.(check int) "ptr" 4 (Types.size_of (Types.Tptr Types.Tdouble));
        Alcotest.(check int) "array" 80
          (Types.size_of (Types.Tarray (Types.Tdouble, 10)));
        Alcotest.(check int) "2d array" 24
          (Types.size_of (Types.Tarray (Types.Tarray (Types.Tint, 3), 2))));
    Alcotest.test_case "builtins typed" `Quick (fun () ->
        let p = Typecheck.program_of_string "double f() { return sqrt(2.0) + exp(1.0); }" in
        Alcotest.(check int) "one func" 1 (List.length p.Tast.funcs));
  ]

(* property: the lexer+parser roundtrips integer expressions built from a
   tiny generator *)
let gen_expr_string =
  let open QCheck.Gen in
  let rec gen n =
    if n <= 0 then
      oneof [ map string_of_int (int_range 0 99); return "x"; return "y" ]
    else
      frequency
        [
          (3, gen 0);
          (2, map2 (fun a b -> "(" ^ a ^ " + " ^ b ^ ")") (gen (n - 1)) (gen (n - 1)));
          (2, map2 (fun a b -> "(" ^ a ^ " * " ^ b ^ ")") (gen (n - 1)) (gen (n - 1)));
          (1, map (fun a -> "(-" ^ a ^ ")") (gen (n - 1)));
        ]
  in
  gen 4

let prop_parse_total =
  QCheck.Test.make ~count:200 ~name:"parser total on generated exprs"
    (QCheck.make gen_expr_string) (fun s ->
      match Parser.expr_of_string s with _ -> true | exception _ -> false)

let () =
  Alcotest.run "srclang"
    [
      ("lexer", lexer_tests);
      ("lexer-oracle", lexer_oracle_tests);
      ("parser", parser_tests);
      ("typecheck", typecheck_tests);
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_parse_total ]);
    ]

(** reference.txt: per table2-sim program and variant, the program's
    output digest and the simulator's cycle-exact counts.  Every
    simulated op must reproduce its lines exactly. *)

type pin = {
  output_md5 : string;
  cycles : int;
  dyn_insns : int;
  l1_hits : int;
  l1_misses : int;
  lsq_stalls : int;
  misspeculations : int;
}

let header =
  "# program variant output_md5 cycles dyn_insns l1_hits l1_misses \
   lsq_stalls misspeculations"

let line ~prog ~variant (x : pin) =
  Printf.sprintf "%s %s %s %d %d %d %d %d %d" prog variant x.output_md5 x.cycles
    x.dyn_insns x.l1_hits x.l1_misses x.lsq_stalls x.misspeculations

(** (program, variant) -> pin, in file order. *)
let parse text : ((string * string) * pin) list =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           Some
             (Scanf.sscanf l "%s %s %s %d %d %d %d %d %d%!"
                (fun prog variant output_md5 cycles dyn_insns l1_hits l1_misses
                     lsq_stalls misspeculations ->
                  ( (prog, variant),
                    { output_md5; cycles; dyn_insns; l1_hits; l1_misses;
                      lsq_stalls; misspeculations } ))))

(** The whole-library form of {!Zkopt_runtime.Runtime.link}, kept as its
    oracle: it adds every runtime function a module does not already
    have, group by group, whether the module can reach it or not, and
    leaves the unreachable ones to the final globaldce.
    [test/test_runtime.ml] requires a module prepared on the library's
    link to print the same as one prepared on this one. *)

open Zkopt_ir
module R = Zkopt_runtime.Runtime

let define m names = List.iter (fun name -> (Option.get (R.member name)).R.define m) names

let link (m : Modul.t) =
  let have name = Modul.find_func m name <> None in
  if not (have "__ashldi3") then define m [ "__ashldi3"; "__lshrdi3"; "__ashrdi3" ];
  if not (have "__udivdi3") then define m [ "__udivdi3"; "__umoddi3" ];
  if not (have "__divdi3") then define m [ "__divdi3"; "__moddi3" ];
  if not (have "memset_w") then define m [ "memset_w"; "memcpy_w" ];
  if not (have "sha256_compress_soft") && Modul.find_global m "__sha256_k" = None
  then begin
    R.sha256_k m;
    define m [ "sha256_compress_soft" ]
  end;
  if not (have "f64_mul") then define m [ "f64_mul"; "f64_add" ];
  R.mark_external m

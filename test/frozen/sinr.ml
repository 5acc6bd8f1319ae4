(* The frozen reference semantics of Sinr.receive, for the reception
   properties and the M12b micro-benchmark.  It reads the field through
   the read-only record [Radiosim.Sinr.t] exposes. *)

open Radiosim.Sinr

(* The frozen dense reference: the original listener-centric path, kept
   verbatim as the executable oracle the property suite holds the
   sparse kernels to.  It reads only cnt/off/col_tx from the loaded
   round — never far, act or the scratch — so it cannot be contaminated
   by the code it checks. *)

let scan_reference t listener =
  let cx = Array.unsafe_get t.col listener in
  let x = Array.unsafe_get t.px listener
  and y = Array.unsafe_get t.py listener in
  let lo = max 0 (cx - t.near) and hi = min (t.ncols - 1) (cx + t.near) in
  let best = ref (-1) and best_pw = ref 0.0 and sum = ref 0.0 in
  for c = lo to hi do
    for idx = t.off.(c) to t.off.(c + 1) - 1 do
      let w = Array.unsafe_get t.col_tx idx in
      let dx = Array.unsafe_get t.px w -. x
      and dy = Array.unsafe_get t.py w -. y in
      let d2 = Float.max ((dx *. dx) +. (dy *. dy)) min_d2 in
      let pw = t.power *. (d2 ** t.neg_half_alpha) in
      sum := !sum +. pw;
      if pw > !best_pw then begin
        best_pw := pw;
        best := w
      end
    done
  done;
  (cx, !best, !best_pw, !sum)

let far_reference t column =
  let s = ref 0.0 in
  for j = 0 to t.ncols - 1 do
    let d = abs (j - column) in
    if d > t.near then
      s := !s +. (float_of_int t.cnt.(j) *. t.pw_far.(d))
  done;
  !s

let receive_reference t ~jammed ~listener =
  let cx, best, best_pw, sum = scan_reference t listener in
  if best < 0 then -1
  else begin
    let floor = t.noise +. (if jammed then t.jam else 0.0) in
    let interference = sum -. best_pw +. far_reference t cx +. floor in
    if best_pw >= t.beta *. interference then best else -2
  end

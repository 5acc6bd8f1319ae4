(* The named workloads, at full size and at the reduced size the test
   suite runs.  BENCHMARK.json and README.md say why each was chosen. *)

type t = { name : string; run : seed:int -> seconds:float -> trace:bool -> Outcome.t }

let lb_field c = { name = "lb-field"; run = Lb_field.run c }
let serve_mac c = { name = "serve-mac"; run = Serve_mac.run c }

let scale c = { name = c.Scale.label; run = Scale.run c }

let all =
  [
    lb_field Lb_field.default;
    serve_mac Serve_mac.default;
    scale Scale.dual_default;
    scale Scale.sinr_default;
  ]

(* Every workload at a size that runs in about a second. *)
let small =
  [
    lb_field { Lb_field.default with n = 300; setups = 1 };
    serve_mac { Serve_mac.default with rounds = 6_000; setups = 1 };
    scale { Scale.dual_default with n = 3_000; rounds = 20; setups = 1 };
    scale { Scale.sinr_default with n = 3_000; rounds = 20; setups = 1 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

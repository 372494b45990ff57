(* The command-line front end: a non-positive count or rate is a usage
   error (exit 2) reported before any work starts, never an uncaught
   exception (exit 125) or a nonsense result. *)

(* Under `dune runtest` the cwd is _build/default/test, under
   `dune exec` it is wherever the user ran it from. *)
let cli =
  let candidates = [ "../bin/cisp_cli.exe"; "_build/default/bin/cisp_cli.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let exit_code args =
  Sys.command (Filename.quote_command cli args ~stdout:Filename.null ~stderr:Filename.null)

let rejects args () =
  Alcotest.(check int) (String.concat " " args ^ " exits 2") 2 (exit_code args)

let test_accepts_one_site () =
  Alcotest.(check int) "design --sites 1 exits 0" 0 (exit_code [ "design"; "--sites"; "1" ])

let suites =
  [
    ( "cli.validation",
      [
        Alcotest.test_case "design --sites 0" `Quick (rejects [ "design"; "--sites"; "0" ]);
        Alcotest.test_case "design --gbps=0" `Quick (rejects [ "design"; "--gbps=0" ]);
        Alcotest.test_case "design --gbps=-1" `Quick (rejects [ "design"; "--gbps=-1" ]);
        Alcotest.test_case "design --gbps=inf" `Quick (rejects [ "design"; "--gbps=inf" ]);
        Alcotest.test_case "design --jobs 0" `Quick (rejects [ "design"; "--jobs"; "0" ]);
        Alcotest.test_case "weather --intervals 0" `Quick
          (rejects [ "weather"; "--intervals"; "0" ]);
        Alcotest.test_case "scenarios --intervals 0" `Quick
          (rejects [ "scenarios"; "--intervals"; "0" ]);
        Alcotest.test_case "scenarios -k 0" `Quick (rejects [ "scenarios"; "-k"; "0" ]);
        Alcotest.test_case "design --sites 1 runs" `Quick test_accepts_one_site;
      ] );
  ]

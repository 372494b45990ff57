(* The command-line front end: an out-of-range count, rate or fraction
   is a usage error (exit 2) reported before any work starts, never an
   uncaught exception (exit 125), a nonsense result or a silently empty
   design.  Zero budget and zero range are degenerate but valid. *)

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

let accepts args () =
  Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 (exit_code args)

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
        Alcotest.test_case "design --sites 1 runs" `Quick (accepts [ "design"; "--sites"; "1" ]);
        Alcotest.test_case "design --height-fraction 0" `Quick
          (rejects [ "design"; "--height-fraction"; "0" ]);
        Alcotest.test_case "design --height-fraction 1.5" `Quick
          (rejects [ "design"; "--height-fraction"; "1.5" ]);
        Alcotest.test_case "design --budget=-1" `Quick (rejects [ "design"; "--budget=-1" ]);
        Alcotest.test_case "design --range=-1" `Quick (rejects [ "design"; "--range=-1" ]);
        Alcotest.test_case "design --range=inf" `Quick (rejects [ "design"; "--range=inf" ]);
        Alcotest.test_case "design --budget 0 --range 0 runs" `Quick
          (accepts [ "design"; "--sites"; "2"; "--budget"; "0"; "--range"; "0" ]);
        Alcotest.test_case "weather --sites 1" `Quick (rejects [ "weather"; "--sites"; "1" ]);
        Alcotest.test_case "scenarios --sites 1" `Quick (rejects [ "scenarios"; "--sites"; "1" ]);
        Alcotest.test_case "econ --cost-per-gb=-1" `Quick (rejects [ "econ"; "--cost-per-gb=-1" ]);
        Alcotest.test_case "econ --cost-per-gb=nan" `Quick (rejects [ "econ"; "--cost-per-gb=nan" ]);
        Alcotest.test_case "econ --cost-per-gb 0 runs" `Quick (accepts [ "econ"; "--cost-per-gb"; "0" ]);
      ] );
  ]

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! see the crate documentation of `mgc_perfbench`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match mgc_perfbench::parse_args(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match mgc_perfbench::bench(&opts, &mut std::io::stdout().lock()) {
        Ok(_) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

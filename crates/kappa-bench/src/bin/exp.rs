//! `exp <experiment> [flags]` reproduces one table or figure of the paper;
//! `exp --list` names them all. A bad command line prints the usage and
//! exits with status 2.

#![forbid(unsafe_code)]

fn main() {
    if let Err(message) = kappa_bench::run_cli(std::env::args().skip(1)) {
        eprintln!("error: {message}\n\n{}", kappa_bench::args::USAGE);
        std::process::exit(2);
    }
}

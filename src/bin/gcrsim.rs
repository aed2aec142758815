//! `gcrsim` — command-line front end. See `gcr::cli::USAGE`.

use std::io::{self, Write};

fn main() {
    // gcr-lint: allow(D02) the process boundary must read argv; nothing downstream of parse() touches the environment
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gcr::cli::parse(&args).and_then(gcr::cli::execute) {
        Ok(out) => {
            // A reader that closes early (`gcrsim … | head`) has taken
            // what it wanted: a broken pipe ends the run quietly. Any
            // other write error is a failure to report.
            let mut stdout = io::stdout().lock();
            match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("gcrsim: cannot write the output: {e}");
                    std::process::exit(2);
                }
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

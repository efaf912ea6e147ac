//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <id>...         # fig1 fig2 fig3 fig7 fig8 fig9 fig10 fig11
//!                             # fig12 fig13 fig14 fig15 fig16 fig17 fig18
//!                             # fig19 tab3 integrity solver ablate chaos
//!                             # controlbus whatif shapes perf
//! experiments all             # everything but perf, in paper order
//! experiments list            # show the registry
//! experiments --out DIR <id>  # additionally write each report to DIR/<id>.txt
//! experiments --jobs N <id>   # run on N threads (1 = fully serial)
//! experiments --only a,b all  # restrict `all` to the listed ids
//! experiments --frozen-wall <id>  # print every wall reading as 0 and
//!                             # write no artifact: the same source prints
//!                             # the same bytes
//! ```

use std::io::Write;

/// Pop `--flag VALUE` out of `args`, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }
    let v = args.remove(pos + 1);
    args.remove(pos);
    Some(v)
}

/// The value of `--jobs`: a positive thread count.
fn parse_jobs(n: &str) -> Result<usize, String> {
    n.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or(format!("--jobs requires a positive integer, got {n:?}"))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<std::path::PathBuf> = None;
    if let Some(dir) = take_flag(&mut args, "--out") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create --out directory");
        out_dir = Some(dir);
    }
    if let Some(n) = take_flag(&mut args, "--jobs") {
        antdt_par::configure_jobs(parse_jobs(&n).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }));
    }
    let only: Option<Vec<String>> = take_flag(&mut args, "--only").map(|list| {
        list.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
    });
    if let Some(ids) = &only {
        if let Err(e) = antdt_bench::check_only(ids) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        // `--only a,b` with no positional ids means "run exactly those".
        if args.is_empty() {
            args = ids.clone();
        }
    }
    let frozen = match args.iter().position(|a| a == "--frozen-wall") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    if frozen {
        antdt_bench::util::freeze_wall(|| run_ids(&args, only.as_deref(), out_dir.as_deref()));
    } else {
        run_ids(&args, only.as_deref(), out_dir.as_deref());
    }
}

/// List the registry, or run each id in `args` and print its report.
fn run_ids(args: &[String], only: Option<&[String]>, out_dir: Option<&std::path::Path>) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if args.is_empty() || args[0] == "list" {
        let _ = writeln!(out, "available experiments:");
        for (id, desc, _) in antdt_bench::registry() {
            let _ = writeln!(out, "  {id:<10} {desc}");
        }
        let _ = writeln!(out, "  {:<10} run everything but perf, in paper order", "all");
        return;
    }
    for id in args {
        let report =
            if id == "all" { Some(antdt_bench::run_all(only)) } else { antdt_bench::run(id) };
        match report {
            Some(report) => {
                let _ = write!(out, "{report}");
                if let Some(dir) = out_dir {
                    std::fs::write(dir.join(format!("{id}.txt")), &report)
                        .expect("write experiment artifact");
                }
            }
            None => {
                eprintln!("unknown experiment id: {id} (try `experiments list`)");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn jobs_must_be_a_positive_integer() {
        assert_eq!(super::parse_jobs("3"), Ok(3));
        for bad in ["0", "-1", "two", ""] {
            assert!(super::parse_jobs(bad).unwrap_err().contains("--jobs"), "{bad:?}");
        }
    }
}

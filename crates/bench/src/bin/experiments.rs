//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <id>...         # fig1 fig2 fig3 fig7 fig8 fig9 fig10 fig11
//!                             # fig12 fig13 fig14 fig15 fig16 fig17 fig18
//!                             # fig19 tab3 integrity solver ablate chaos
//!                             # controlbus whatif perf
//! experiments all             # everything but perf, in paper order
//! experiments list            # show the registry
//! experiments --out DIR <id>  # additionally write each report to DIR/<id>.txt
//! experiments --jobs N <id>   # run on N threads (1 = fully serial)
//! experiments --only a,b all  # restrict `all` to the listed ids
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<std::path::PathBuf> = None;
    if let Some(dir) = take_flag(&mut args, "--out") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create --out directory");
        out_dir = Some(dir);
    }
    if let Some(n) = take_flag(&mut args, "--jobs") {
        let n: usize = n.parse().unwrap_or_else(|_| {
            eprintln!("--jobs requires a positive integer, got {n:?}");
            std::process::exit(2);
        });
        antdt_par::configure_jobs(n);
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
    for id in &args {
        let report = if id == "all" {
            Some(antdt_bench::run_all(only.as_deref()))
        } else {
            antdt_bench::run(id)
        };
        match report {
            Some(report) => {
                let _ = write!(out, "{report}");
                if let Some(dir) = &out_dir {
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

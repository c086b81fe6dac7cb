//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--full] [--out DIR]
//!
//! experiments:
//!   table1  table2
//!   fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!   all     (everything; hours at --full scale)
//! ```
//!
//! Default parameters are scaled for a single-core CPU run (sample
//! counts and target counts; see `Ctx` in `context.rs`); `--full`
//! restores paper-scale parameters where feasible. Each experiment prints its table/series and writes a CSV
//! under `results/`.

mod context;
mod exp_ablation;
mod exp_baselines;
mod exp_circuits;
mod exp_noise;
mod exp_rotations;
mod exp_single;
mod exp_tradeoff;
mod exp_zx;
mod util;

use context::Ctx;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_pos = args.iter().position(|a| a == "--out");
    let outdir = out_pos
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results".to_string());
    let cmd = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && Some(*i) != out_pos.map(|p| p + 1))
        .map_or_else(|| "help".to_string(), |(_, a)| a.clone());

    if cmd == "help" {
        eprintln!(
            "usage: repro <table1|table2|fig2|fig3|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|all> [--full] [--out DIR]"
        );
        return;
    }

    std::fs::create_dir_all(&outdir).expect("create output directory");
    let ctx = Ctx::new(full, outdir);

    let run = |name: &str, ctx: &Ctx| match name {
        "table1" => exp_single::table1(ctx),
        "table2" => exp_rotations::table2(ctx),
        "fig2" => exp_circuits::fig2(ctx),
        "fig3" => exp_rotations::fig3(ctx),
        "fig6" => exp_rotations::fig6(ctx),
        "fig7" => exp_single::fig7(ctx),
        "fig8" => exp_single::fig8(ctx),
        "fig9" => exp_tradeoff::fig9(ctx),
        "fig10" => exp_circuits::fig10(ctx),
        "fig11" => exp_circuits::fig11(ctx),
        "fig12" => exp_baselines::fig12(ctx),
        "fig13" => exp_noise::fig13(ctx),
        "fig14" => exp_zx::fig14(ctx),
        "ablation" => exp_ablation::ablation(ctx),
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };

    if cmd == "all" {
        for name in [
            "table2", "fig3", "fig6", "table1", "fig7", "fig8", "fig9", "fig2", "fig10", "fig11",
            "fig12", "fig13", "fig14", "ablation",
        ] {
            println!("\n================== {name} ==================");
            run(name, &ctx);
        }
    } else {
        run(&cmd, &ctx);
    }
}

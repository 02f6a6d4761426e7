//! `perfbench` — the steps of the end-to-end benchmark, one per process.
//!
//! ```text
//! perfbench gen   --family rmat|er --seed S --scale full|tiny --dir DIR --files F[,F]
//! perfbench run   --workload W --dir DIR --out FILE [--corrupt]
//! perfbench trace --workload W --dir DIR --out FILE
//! perfbench check --workload W --dir DIR --file FILE
//! perfbench describe --workload W
//! ```
//!
//! `gen` writes seeded inputs of a graph family (for RMAT, the graph files
//! named by `--files`: `graph.oms`, `graph.metis`). `run` is one untimed-
//! outside, timed-inside pass of the path the `oms` CLI takes (input file →
//! job → partition → assignment file) followed by the output checks;
//! `trace` is the same path with the recorder installed and every layer
//! call timed; `check` validates an assignment file written by the CLI.
//! Each step prints one JSON object on stdout. `run.py` orchestrates the
//! steps, one fresh process per run, and aggregates them.

mod json;
mod layers;
mod path;
mod workload;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{BoxError, Family, Format, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(record) => {
            println!("{record}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<json::Record, BoxError> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let (options, corrupt) = parse_options(rest)?;
    let get = |key: &str| -> Result<&String, BoxError> {
        options
            .get(key)
            .ok_or_else(|| format!("{command}: --{key} is required").into())
    };
    if command == "gen" {
        let family = Family::parse(get("family")?).ok_or("--family must be rmat or er")?;
        let scale = Scale::parse(get("scale")?).ok_or("--scale must be full or tiny")?;
        let seed: u64 = get("seed")?.parse()?;
        let formats = get("files")?
            .split(',')
            .filter_map(Format::from_file)
            .collect::<Vec<_>>();
        let dir = PathBuf::from(get("dir")?);
        let gen_s = workload::generate(family, seed, scale, &formats, &dir)?;
        let mut record = json::Record::default();
        record.num("gen_s", gen_s);
        return Ok(record);
    }
    let name = get("workload")?;
    let w = workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    if command == "describe" {
        return Ok(w.describe());
    }
    let dir = PathBuf::from(get("dir")?);
    match command.as_str() {
        "run" => path::run(w, &dir, &PathBuf::from(get("out")?), corrupt),
        "trace" => layers::trace(w, &dir, &PathBuf::from(get("out")?)),
        "check" => path::check_file(w, &dir, &PathBuf::from(get("file")?)),
        other => Err(format!("unknown command '{other}'").into()),
    }
}

/// Splits `--key value` pairs; `--corrupt` is the one valueless flag.
fn parse_options(args: &[String]) -> Result<(HashMap<String, String>, bool), BoxError> {
    let mut options = HashMap::new();
    let mut corrupt = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
        if key == "corrupt" {
            corrupt = true;
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("--{key} requires a value"))?;
        options.insert(key.to_string(), value.clone());
    }
    Ok((options, corrupt))
}

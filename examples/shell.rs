//! An interactive shell speaking the paper's query language.
//!
//! Loads the university database (5,000 students indexed by a BSSF) and
//! accepts queries like the paper's Q1/Q2 on stdin:
//!
//! ```text
//! cargo run --release --example shell
//! > select Student where hobbies has-subset ("Baseball", "Fishing")
//! > select Student where hobbies in-subset ("Baseball", "Fishing", "Tennis")
//! > select Student where hobbies contains "Chess"
//! ```
//!
//! When stdin is not a terminal (e.g. CI), a scripted demo session runs
//! instead.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example code

use setsig::prelude::*;
use setsig::workload::university_hobbies;
use std::io::{BufRead, IsTerminal, Write};
use std::sync::Arc;

fn main() {
    let mut db = Database::in_memory();
    let student = db
        .define_class(ClassDef::new(
            "Student",
            vec![
                ("name", AttrType::Str),
                ("hobbies", AttrType::set_of(AttrType::Str)),
            ],
        ))
        .unwrap();
    let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
    let bssf = Bssf::create(io, "hobbies", SignatureConfig::new(256, 2).unwrap()).unwrap();
    db.register_facility(student, "hobbies", Box::new(bssf))
        .unwrap();

    for s in university_hobbies(5000, 8, 6, 42) {
        db.insert_object(
            student,
            vec![
                Value::str(&s.name),
                Value::set(s.hobbies.iter().map(|h| Value::str(h)).collect()),
            ],
        )
        .unwrap();
    }
    println!("setsig shell — 5000 Students, hobbies indexed by BSSF (F = 256, m = 2)");
    println!("operators: has-subset | in-subset | equals | overlaps | contains; quit with \\q\n");

    let stdin = std::io::stdin();
    if stdin.is_terminal() {
        let mut line = String::new();
        loop {
            print!("> ");
            std::io::stdout().flush().ok();
            line.clear();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            if text == "\\q" || text == "quit" || text == "exit" {
                break;
            }
            run_one(&db, text);
        }
    } else {
        // Scripted demo for non-interactive runs.
        for text in [
            r#"select Student where hobbies has-subset ("Baseball", "Fishing")"#,
            r#"select Student where hobbies in-subset ("Baseball", "Fishing", "Tennis")"#,
            r#"select Student where hobbies contains "Chess""#,
            r#"select Student where hobbies overlaps ("Surfing", "Sailing")"#,
            r#"select Student where hobbies frobnicates ("oops")"#,
        ] {
            println!("> {text}");
            run_one(&db, text);
        }
    }
}

fn run_one(db: &Database, text: &str) {
    match db.run_query(text) {
        Ok(result) => {
            for oid in result.actual.iter().take(5) {
                if let Ok(obj) = db.get_object(*oid) {
                    println!("  {:?}  hobbies: {:?}", obj.values[0], obj.values[1]);
                }
            }
            if result.actual.len() > 5 {
                println!("  … {} more", result.actual.len() - 5);
            }
            println!(
                "  {} matches in {} page accesses ({} candidates, {} false drops)\n",
                result.actual.len(),
                result.io.accesses(),
                result.drops.len(),
                result.false_drops
            );
        }
        Err(e) => println!("  error: {e}\n"),
    }
}

#!/usr/bin/env python3
"""Regenerate the shipped scenario corpus under scenarios/.

Every scenario file gets a sibling policy file that drives the scripted
provider through it. Policy entries are ordered, first match wins:

1. state-manager matchers, keyed on sentinels that occur only in raw
   observation payloads or error descriptors (summaries never repeat the
   sentinels, so later state prompts cannot re-trigger them);
2. router matchers, keyed on tokens present both in scripted summaries and
   in raw payloads, so the same policy drives the summarizing engine, the
   transcript engine and the depth-first engine;
3. a default proposing the opening tool call.

Run from the repo root: python scripts/build_scenario_suite.py [OUT_DIR]
(OUT_DIR defaults to scenarios/).
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "scenarios"


def tool(name: str, description: str, *params: tuple[str, str]) -> dict:
    return {
        "name": name,
        "description": description,
        "params": [
            {"name": p, "type": "string", "required": True, "description": d}
            for p, d in params
        ],
    }


def entry(match: str, response: dict, is_regex: bool = True) -> dict:
    return {"match": match, "response": json.dumps(response), "is_regex": is_regex}


def tool_call(thought: str, action: str, args: dict) -> dict:
    return {"thought": thought, "action": action, "args": args}


def finish(thought: str, answer: str) -> dict:
    return {"thought": thought, "action": "Finish", "args": {"Answer": answer}}


def success(summary: str) -> dict:
    return {"verdict": "Success", "summary": summary}


def failure(reason: str) -> dict:
    return {"verdict": "Failure", "reason": reason}


def write_pair(directory: Path, name: str, scenario: dict, policy: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.scenario.json").write_text(
        json.dumps(scenario, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    (directory / f"{name}.policy.json").write_text(
        json.dumps(policy, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# core: weather with one transient 500
# ---------------------------------------------------------------------------

WEATHER = [
    ("Miami", 29, "sunny"),
    ("Lisbon", 24, "clear"),
    ("Osaka", 31, "humid"),
    ("Denver", 18, "breezy"),
    ("Cairo", 35, "dry"),
    ("Oslo", 12, "overcast"),
]


def build_weather(root: Path) -> None:
    for city, temp, cond in WEATHER:
        sid = f"weather_{city.lower()}"
        scenario = {
            "id": sid,
            "instruction": {
                "id": sid,
                "text": f"What will the weather be like in {city} today?",
                "subset_label": "core",
            },
            "tools": [
                tool("get_weather", "Current weather conditions and forecast by city.",
                     ("city", "target city name"))
            ],
            "behaviors": {
                "get_weather": [
                    {"kind": "error", "code": 500,
                     "message": "upstream weather provider unavailable", "repeat": "once"},
                    {"kind": "success",
                     "payload": f"Forecast for {city}: {cond} with a high of {temp} "
                                f"degrees (WX-OK-{city.upper()}).",
                     "repeat": "forever"},
                ]
            },
            "pass_condition": {"contains_all": [cond, str(temp)]},
        }
        policy = {
            "entries": [
                entry(r"(?s)state manager.*HTTP 500",
                      failure("the weather endpoint returned a server error")),
                entry(rf"(?s)state manager.*WX-OK-{city.upper()}",
                      success(f"{city} forecast retrieved: {cond}, high {temp} degrees")),
                entry(rf"(?s){cond} with a high of {temp}|{cond}, high {temp}",
                      finish("forecast known",
                             f"{city} will be {cond} with a high of {temp} degrees.")),
                entry(r"(?s)server error|HTTP 500",
                      tool_call("retry the weather call", "get_weather", {"city": city})),
            ],
            "default": json.dumps(
                tool_call("look up the forecast", "get_weather", {"city": city})
            ),
        }
        write_pair(root / "core", sid, scenario, policy)


# ---------------------------------------------------------------------------
# core: two-tool flight chains
# ---------------------------------------------------------------------------

FLIGHTS = [
    ("BOS", "SFO", "UA482", 412),
    ("JFK", "LHR", "BA178", 689),
    ("SEA", "NRT", "NH177", 953),
    ("AUS", "ORD", "AA331", 227),
]


def build_flights(root: Path) -> None:
    for origin, dest, fid, price in FLIGHTS:
        sid = f"flight_{origin.lower()}_{dest.lower()}"
        scenario = {
            "id": sid,
            "instruction": {
                "id": sid,
                "text": f"Find the best flight from {origin} to {dest} and tell me its total fare.",
                "subset_label": "core",
            },
            "tools": [
                tool("search_flights", "Search scheduled flights between two airports.",
                     ("origin", "origin airport code"), ("destination", "destination airport code")),
                tool("get_price", "Total fare for a flight number.",
                     ("flight_id", "flight number")),
            ],
            "behaviors": {
                "search_flights": [
                    {"kind": "success",
                     "payload": f"Flights from {origin} to {dest}: best option {fid} "
                                f"departing 08:15 (FS-OK-{fid}).",
                     "repeat": "forever"},
                ],
                "get_price": [
                    {"kind": "success",
                     "payload": f"Total fare for {fid}: {price} USD including taxes "
                                f"(PRICE-OK-{fid}).",
                     "repeat": "forever"},
                ],
            },
            "pass_condition": {"contains_all": [fid, str(price)]},
        }
        policy = {
            "entries": [
                entry(rf"(?s)state manager.*FS-OK-{fid}",
                      success(f"best flight found: {fid} departing 08:15")),
                entry(rf"(?s)state manager.*PRICE-OK-{fid}",
                      success(f"fare for {fid} is {price} USD")),
                entry(rf"(?s){price} USD",
                      finish("fare known",
                             f"{fid} from {origin} to {dest} costs {price} USD.")),
                entry(rf"(?s){fid}",
                      tool_call("price the flight", "get_price", {"flight_id": fid})),
            ],
            "default": json.dumps(
                tool_call("search the route", "search_flights",
                          {"origin": origin, "destination": dest})
            ),
        }
        write_pair(root / "core", sid, scenario, policy)


# ---------------------------------------------------------------------------
# core: verbose currency conversions (relevant fragment buried in filler)
# ---------------------------------------------------------------------------

CURRENCIES = [
    ("150", "EUR", "USD", "163.20"),
    ("980", "GBP", "JPY", "186649"),
    ("75", "CHF", "INR", "7212.50"),
    ("400", "AUD", "CAD", "361.84"),
]


def build_currencies(root: Path) -> None:
    for amount, frm, to, result in CURRENCIES:
        sid = f"currency_{frm.lower()}_{to.lower()}"
        scenario = {
            "id": sid,
            "instruction": {
                "id": sid,
                "text": f"How much is {amount} {frm} in {to}?",
                "subset_label": "core",
            },
            "tools": [
                tool("convert_currency", "Convert an amount between two currencies.",
                     ("amount", "amount to convert"),
                     ("from_currency", "source currency code"),
                     ("to_currency", "target currency code")),
            ],
            "behaviors": {
                "convert_currency": [
                    {"kind": "verbose",
                     "payload": f"Conversion result: {amount} {frm} equals {result} {to} "
                                f"at today's mid-market rate (FX-OK-{frm}{to}).",
                     "filler_chars": 6000,
                     "repeat": "forever"},
                ]
            },
            "pass_condition": {"contains_all": [result, to]},
        }
        policy = {
            "entries": [
                entry(rf"(?s)state manager.*FX-OK-{frm}{to}",
                      success(f"conversion computed: {amount} {frm} equals {result} {to}")),
                entry(rf"(?s)equals {re.escape(result)} {to}",
                      finish("conversion known", f"{amount} {frm} equals {result} {to}.")),
            ],
            "default": json.dumps(
                tool_call("convert the amount", "convert_currency",
                          {"amount": amount, "from_currency": frm, "to_currency": to})
            ),
        }
        write_pair(root / "core", sid, scenario, policy)


# ---------------------------------------------------------------------------
# core: schema mistake corrected via failure history
# ---------------------------------------------------------------------------

TRACKING = [
    ("PKT4821", "Reno"),
    ("PKT9034", "Galway"),
    ("PKT5566", "Tulsa"),
]


def build_tracking(root: Path) -> None:
    for tracking_number, city in TRACKING:
        sid = f"track_{tracking_number.lower()}"
        scenario = {
            "id": sid,
            "instruction": {
                "id": sid,
                "text": f"Where is package {tracking_number} right now?",
                "subset_label": "core",
            },
            "tools": [
                tool("track_package", "Live location of a package by tracking number.",
                     ("tracking_number", "the package tracking number")),
            ],
            "behaviors": {
                "track_package": [
                    {"kind": "success",
                     "payload": f"Package {tracking_number}: out for delivery from the "
                                f"{city} depot (TRACK-OK-{tracking_number}).",
                     "repeat": "forever"},
                ]
            },
            "pass_condition": {"contains_all": ["out for delivery", tracking_number]},
        }
        policy = {
            "entries": [
                entry(r"(?s)state manager.*missing required parameter",
                      failure("the call omitted the required tracking_number argument")),
                entry(rf"(?s)state manager.*TRACK-OK-{tracking_number}",
                      success(f"package {tracking_number} is out for delivery from the {city} depot")),
                entry(r"(?s)out for delivery",
                      finish("location known",
                             f"Package {tracking_number} is out for delivery from the {city} depot.")),
                entry(r"(?s)tracking_number argument|missing required parameter",
                      tool_call("include the tracking number", "track_package",
                                {"tracking_number": tracking_number})),
            ],
            # Deliberately omits the required parameter on the first attempt.
            "default": json.dumps(tool_call("look up the package", "track_package", {})),
        }
        write_pair(root / "core", sid, scenario, policy)


# ---------------------------------------------------------------------------
# core: failing primary, working backup
# ---------------------------------------------------------------------------

FAILOVER = [
    ("inventory", "stock level for SKU-8412 is 73 units", "73 units"),
    ("billing", "invoice INV-2207 balance is 310.40 USD", "310.40"),
    ("uptime", "service uptime over 30 days is 99.97 percent", "99.97"),
]


def build_failover(root: Path) -> None:
    for slug, datum, token in FAILOVER:
        sid = f"failover_{slug}"
        sentinel = slug.upper()
        scenario = {
            "id": sid,
            "instruction": {
                "id": sid,
                "text": f"Fetch the {slug} figure from our records and report it.",
                "subset_label": "core",
            },
            "tools": [
                tool("primary_lookup", "Query the primary records store.",
                     ("dataset", "dataset name")),
                tool("backup_lookup", "Query the read-only replica of the records store.",
                     ("dataset", "dataset name")),
            ],
            "behaviors": {
                "primary_lookup": [
                    {"kind": "error", "code": 503,
                     "message": f"primary store offline for maintenance (SVCA-{sentinel})",
                     "repeat": "forever"},
                ],
                "backup_lookup": [
                    {"kind": "success",
                     "payload": f"Replica answered: {datum} (SVCB-{sentinel}).",
                     "repeat": "forever"},
                ],
            },
            "pass_condition": {"contains_all": [token]},
        }
        policy = {
            "entries": [
                entry(rf"(?s)state manager.*SVCA-{sentinel}",
                      failure("the primary store is offline for maintenance")),
                entry(rf"(?s)state manager.*SVCB-{sentinel}",
                      success(f"replica answered: {datum}")),
                entry(rf"(?s){re.escape(datum)}",
                      finish("figure known", f"From the replica: {datum}.")),
                entry(rf"(?s)primary store (is )?offline|SVCA-{sentinel}",
                      tool_call("fall back to the replica", "backup_lookup", {"dataset": slug})),
            ],
            "default": json.dumps(
                tool_call("query the primary store", "primary_lookup", {"dataset": slug})
            ),
        }
        write_pair(root / "core", sid, scenario, policy)


# ---------------------------------------------------------------------------
# core: transient timeout then recovery
# ---------------------------------------------------------------------------

QUOTES = [
    ("copper", "9450 USD per tonne", "9450"),
    ("wheat", "612 USD per bushel", "612"),
    ("brent", "84.10 USD per barrel", "84.10"),
]


def build_quotes(root: Path) -> None:
    for slug, datum, token in QUOTES:
        sid = f"quote_{slug}"
        scenario = {
            "id": sid,
            "instruction": {
                "id": sid,
                "text": f"Get me the latest {slug} quote.",
                "subset_label": "core",
            },
            "tools": [
                tool("fetch_quote", "Latest market quote for a commodity symbol.",
                     ("symbol", "commodity symbol")),
            ],
            "behaviors": {
                "fetch_quote": [
                    {"kind": "timeout",
                     "message": "simulated timeout contacting the quote gateway",
                     "repeat": "once"},
                    {"kind": "success",
                     "payload": f"Latest {slug} quote: {datum} (QUOTE-OK-{slug.upper()}).",
                     "repeat": "forever"},
                ]
            },
            "pass_condition": {"contains_all": [token]},
        }
        policy = {
            "entries": [
                entry(r"(?s)state manager.*timeout",
                      failure("the quote service timed out")),
                entry(rf"(?s)state manager.*QUOTE-OK-{slug.upper()}",
                      success(f"{slug} quote retrieved: {datum}")),
                entry(rf"(?s){re.escape(datum)}",
                      finish("quote known", f"The latest {slug} quote is {datum}.")),
                entry(r"(?s)timed out|timeout",
                      tool_call("retry the quote call", "fetch_quote", {"symbol": slug})),
            ],
            "default": json.dumps(
                tool_call("fetch the quote", "fetch_quote", {"symbol": slug})
            ),
        }
        write_pair(root / "core", sid, scenario, policy)


# ---------------------------------------------------------------------------
# differential: step-1 information needed after the transcript window evicts it
# ---------------------------------------------------------------------------

CODE_FILLER = 2500
PART_FILLER = 1300


def build_differential(root: Path) -> None:
    for k in range(1, 6):
        sid = f"vault_{k}"
        code = f"CODE-77{k}"
        scenario = {
            "id": sid,
            "instruction": {
                "id": sid,
                "text": f"Recover the archive access code for vault V{k}, confirm all "
                        "three checksum parts, and report the access code.",
                "subset_label": "long-horizon",
            },
            "tools": [
                tool("fetch_access_code", "Issue the archive access code for a vault.",
                     ("vault_id", "vault identifier")),
                tool("fetch_part", "Confirm one checksum part (1, 2 or 3).",
                     ("part", "checksum part number")),
            ],
            "behaviors": {
                "fetch_access_code": [
                    {"kind": "verbose",
                     "payload": f"Vault V{k} access code {code} issued by the registrar "
                                f"(OBS-CODE-{k}).",
                     "filler_chars": CODE_FILLER,
                     "repeat": "forever"},
                ],
                "fetch_part": [
                    {"kind": "verbose",
                     "payload": f"Checksum part {i} of 3 confirmed: signature "
                                f"sig-{i}-of-vault{k} (OBS-PART{i}-{k}).",
                     "filler_chars": PART_FILLER,
                     "repeat": "once" if i < 3 else "forever"}
                    for i in (1, 2, 3)
                ],
            },
            "pass_condition": {"contains_all": [code]},
        }
        policy = {
            "entries": [
                entry(rf"(?s)state manager.*OBS-CODE-{k}",
                      success(f"vault access code {code} recovered")),
                entry(rf"(?s)state manager.*OBS-PART1-{k}",
                      success(f"checksum part 1 confirmed with signature sig-1-of-vault{k}")),
                entry(rf"(?s)state manager.*OBS-PART2-{k}",
                      success(f"checksum part 2 confirmed with signature sig-2-of-vault{k}")),
                entry(rf"(?s)state manager.*OBS-PART3-{k}",
                      success(f"checksum part 3 confirmed with signature sig-3-of-vault{k}")),
                entry(rf"(?s){code}.*sig-3-of-vault{k}",
                      finish("code and all parts in hand",
                             f"Vault V{k} access code {code}; checksum parts sig-1, "
                             "sig-2 and sig-3 all confirmed.")),
                entry(rf"(?s)sig-3-of-vault{k}",
                      finish("parts done but the code is gone",
                             "All three checksum parts are confirmed but the access "
                             "code is no longer in context.")),
                entry(rf"(?s)sig-2-of-vault{k}",
                      tool_call("confirm part 3", "fetch_part", {"part": "3"})),
                entry(rf"(?s)sig-1-of-vault{k}",
                      tool_call("confirm part 2", "fetch_part", {"part": "2"})),
                entry(rf"(?s){code}",
                      tool_call("confirm part 1", "fetch_part", {"part": "1"})),
            ],
            "default": json.dumps(
                tool_call("get the access code", "fetch_access_code", {"vault_id": f"V{k}"})
            ),
        }
        write_pair(root / "differential", sid, scenario, policy)


# ---------------------------------------------------------------------------
# search: depth-first backtracking with a failing first branch
# ---------------------------------------------------------------------------


def build_search(root: Path) -> None:
    sid = "mirror_registry"
    scenario = {
        "id": sid,
        "instruction": {
            "id": sid,
            "text": "Find which mirror currently serves dataset D7 and report its hostname.",
            "subset_label": "search",
        },
        "tools": [
            tool("query_registry", "Authoritative registry lookup for dataset placements.",
                 ("dataset", "dataset name")),
            tool("probe_mirror", "Probe the mirror fleet for a dataset.",
                 ("dataset", "dataset name")),
        ],
        "behaviors": {
            "query_registry": [
                {"kind": "error", "code": 503,
                 "message": "registry maintenance window (REG-DOWN-D7)",
                 "repeat": "forever"},
            ],
            "probe_mirror": [
                {"kind": "success",
                 "payload": "Dataset D7 is served from mirror host mirror-04.internal "
                            "(MIRROR-OK-D7).",
                 "repeat": "forever"},
            ],
        },
        "pass_condition": {"contains_all": ["mirror-04.internal"]},
    }
    policy = {
        "entries": [
            entry(r"(?s)state manager.*REG-DOWN-D7",
                  failure("the registry endpoint is down for maintenance")),
            entry(r"(?s)state manager.*MIRROR-OK-D7",
                  success("mirror-04.internal serves dataset D7")),
            entry(r"(?s)mirror-04\.internal",
                  finish("hostname known", "Dataset D7 is served by mirror-04.internal.")),
            entry(r"(?s)Previously Attempted From This Point.*query_registry",
                  tool_call("the registry path failed here; probe the mirrors directly",
                            "probe_mirror", {"dataset": "D7"})),
            entry(r"(?s)registry endpoint is down|REG-DOWN-D7",
                  tool_call("registry is down; probe the mirrors", "probe_mirror",
                            {"dataset": "D7"})),
        ],
        "default": json.dumps(
            tool_call("consult the registry", "query_registry", {"dataset": "D7"})
        ),
    }
    write_pair(root / "search", sid, scenario, policy)


# ---------------------------------------------------------------------------
# adversarial: never finishes, must hit the budget exactly
# ---------------------------------------------------------------------------


def build_adversarial(root: Path) -> None:
    sid = "never_finish"
    scenario = {
        "id": sid,
        "instruction": {
            "id": sid,
            "text": "Poll the job status until it completes and report the final status.",
            "subset_label": "adversarial",
        },
        "tools": [
            tool("poll_status", "Status of a background job.", ("job_id", "job identifier")),
        ],
        "behaviors": {
            "poll_status": [
                {"kind": "success", "payload": "Job 881 status: pending (POLL-OK).",
                 "repeat": "forever"},
            ]
        },
        "pass_condition": {"contains_all": ["complete"]},
    }
    policy = {
        "entries": [
            entry("state manager", success("job 881 still pending"), is_regex=False),
        ],
        "default": json.dumps(
            tool_call("poll again", "poll_status", {"job_id": "881"})
        ),
    }
    write_pair(root / "adversarial", sid, scenario, policy)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=Path, default=ROOT,
        help="directory to write the corpus into (default: scenarios/ in the repo)",
    )
    out = parser.parse_args(argv).out
    for build in (
        build_weather, build_flights, build_currencies, build_tracking, build_failover,
        build_quotes, build_differential, build_search, build_adversarial,
    ):
        build(out)
    count = len(list(out.glob("**/*.scenario.json")))
    print(f"wrote {count} scenarios under {out}")


if __name__ == "__main__":
    main()

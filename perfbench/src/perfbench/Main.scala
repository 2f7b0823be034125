package perfbench

/** What one workload run produced. `skipped` names the metric prefixes
  * of layers that are not on the workload's path; run.py reports those
  * metrics as 0.
  */
final case class Outcome(
    metrics: Metrics,
    checks: Checks,
    skipped: Seq[String],
    env: Map[String, Any],
    detail: Map[String, Any]
)

/** Entry point of one benchmark JVM: `--workload <name> --seed <n>
  * --draw <k> --seconds <s> --trace <0|1> --out <dir>`. Prints one
  * `RESULT <json>` line on standard output; run.py combines the JVMs of a
  * run.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    val tr = new Tracer(o.trace)
    val out = o.workload match {
      case "kv-serve"     => KvServe.run(o, tr)
      case "log-archive"  => LogArchive.run(o, tr)
      case "spark-ingest" => SparkIngest.run(o, tr)
      case w              => throw new IllegalArgumentException(s"unknown workload $w")
    }
    val rt = Runtime.getRuntime
    val env = Map(
      "workload" -> o.workload, "seed" -> o.seed, "serve_seed" -> o.serveSeed, "draw" -> o.draw,
      "nproc" -> rt.availableProcessors, "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "max_heap_mb" -> rt.maxMemory / (1L << 20), "commit" -> o.commit, "source_sha256" -> o.source,
      "trace" -> o.trace, "seconds" -> o.seconds
    ) ++ out.env
    val c = out.checks
    val metrics = out.metrics.values.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) }
    if (o.trace)
      tr.write(o.outDir.resolve("traces").resolve(s"trace-${o.workload}-seed${o.seed}-draw${o.draw}.csv"),
        Seq(s"env ${Json(env)}", s"metrics ${Json(metrics)}"))
    val result = collection.immutable.ListMap(
      "env" -> env, "detail" -> out.detail,
      "correct" -> (c.failed == 0 && c.attempted > 0), "attempted" -> c.attempted, "failed" -> c.failed,
      "skipped" -> out.skipped, "metrics" -> metrics)
    println("RESULT " + Json(result))
  }
}

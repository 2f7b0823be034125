package perfbench

import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, StandardOpenOption}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import scala.util.control.NonFatal
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
import repro.core.PbcCodec
import repro.data.MachineData
import repro.sparkpbc.{PbcFiles, PbcSpark}
import repro.tables.Dictionaries

/** spark-ingest: KV1-shaped records from a cached DataFrame through the
  * `pbc` DataSourceV2 format, written and read back under `local[n]`
  * (n = min(4, cores), one partition per core), plus random point reads
  * into the written part files. Records are short (about 77 B), so the
  * per-row DSv2 and Spark overhead is the largest share of the work, and
  * since the partitions run at once the slowest task sets job time.
  */
object SparkIngest {
  val Dataset = "KV1"
  val TrainRecords = 20000
  val Records = 200000
  val PointReads = 20000

  private final case class Task(round: String, stage: Int, durationMs: Long, runMs: Long, cpuNs: Long,
      gcMs: Long, delayMs: Long)

  /** Task metrics of the jobs tagged with a round description, read
    * once the session has stopped (stopping drains the listener bus).
    */
  private final class TaskLog extends SparkListener {
    private val stageRound = scala.collection.concurrent.TrieMap.empty[Int, String]
    val tasks = ArrayBuffer.empty[Task]

    override def onJobStart(e: SparkListenerJobStart): Unit =
      Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description")))
        .foreach(d => e.stageIds.foreach(stageRound(_) = d))

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      for (round <- stageRound.get(e.stageId); tm <- Option(e.taskMetrics)) {
        val info = e.taskInfo
        val delay = info.duration - tm.executorRunTime - tm.executorDeserializeTime -
          tm.resultSerializationTime - info.gettingResultTime
        tasks += Task(round, e.stageId, info.duration, tm.executorRunTime, tm.executorCpuTime,
          tm.jvmGCTime, math.max(0L, delay))
      }
    }

    def put(m: Metrics): Unit = synchronized {
      val rounds = tasks.groupBy(_.round).values.toVector
      def perRound(f: Seq[Task] => Double): Double = Stats.median(rounds.map(r => f(r.toSeq)))
      m.put("spark.tasks", perRound(_.length.toDouble), "count")
      m.put("spark.task_run_s", perRound(_.map(_.runMs).sum / 1e3), "s")
      m.put("spark.task_cpu_s", perRound(_.map(_.cpuNs).sum / 1e9), "s")
      m.put("spark.task_gc_s", perRound(_.map(_.gcMs).sum / 1e3), "s")
      m.put("spark.scheduler_delay_s", perRound(_.map(_.delayMs).sum / 1e3), "s")
      val skews = tasks.groupBy(_.stage).values.toVector.map { ts =>
        val d = ts.map(_.durationMs.toDouble)
        d.max / math.max(1.0, Stats.median(d.toSeq))
      }
      m.put("spark.task_skew", Stats.median(skews), "max/median")
    }
  }

  private def session(cores: Int, work: Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench-spark-ingest")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", cores.toString)
      .getOrCreate()

  /** Self-test fault: flips the first payload byte of a part file. */
  private def corruptPart(p: Path): Unit = {
    val ch = FileChannel.open(p, StandardOpenOption.READ, StandardOpenOption.WRITE)
    try {
      val b = ByteBuffer.allocate(4)
      ch.read(b, 4L)
      val pos = 8L + b.flip().getInt
      val one = ByteBuffer.allocate(1)
      ch.read(one, pos)
      ch.write(ByteBuffer.wrap(Array((one.get(0) ^ 0x21).toByte)), pos)
    } finally ch.close()
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(x => Files.delete(x))
      finally s.close()
    }

  def run(o: Opts, tr: Tracer): Outcome = {
    val cfg = Training.draw(Dictionaries.pbcConfig(Dataset), o.draw)
    val train = MachineData.records(Dataset, TrainRecords, o.seed)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val work = o.outDir.resolve("work").resolve(s"spark-${ProcessHandle.current().pid()}")
    val dir = work.resolve("out").toString

    var spark: SparkSession = null
    try {
      val t0 = System.nanoTime()
      spark = tr.span("spark.session")(session(cores, work))
      val sessionS = (System.nanoTime() - t0) / 1e9
      val (dict, trainS) = Training.train(train, cfg, tr)
      val setupS = sessionS + trainS

      val records = MachineData.records(Dataset, Records, o.serveSeed).toArray
      val rawBytes = records.iterator.map(_.getBytes(UTF_8).length.toLong).sum
      val rnd = new Random(o.serveSeed)
      val points = Array.fill(PointReads)(rnd.nextInt(Records))
      val sc = spark.sparkContext
      val df: DataFrame = spark.createDataset(sc.parallelize(records.toSeq, cores))(Encoders.STRING)
        .toDF("value").cache()
      df.count()

      val checks = new Checks
      val pointLat = new Samples
      val sRecord = tr.id("pbc.read_record")
      // total bytes and number of part files written
      var fileBytes, partCount = 0L
      val log = new TaskLog
      if (o.trace) sc.addSparkListener(log)

      def round(n: Int, t: Tracer): RoundStats = {
        val measured = n >= 0
        // the task log keeps the jobs of measured traced rounds only
        sc.setJobDescription(if (measured && t.enabled) s"round-$n" else null)
        val start = System.nanoTime()
        t.span("spark.write")(PbcSpark.write(df, "value", dict, dir))
        val written = System.nanoTime()
        val parts = PbcFiles.listParts(dir)
        if (o.corrupt) parts.foreach(corruptPart)
        fileBytes = parts.map(Files.size).sum
        partCount = parts.length

        val read = System.nanoTime()
        val rows =
          try t.span("spark.read")(PbcSpark.read(spark, dir).collect()).map(_.getString(0))
          catch { case NonFatal(_) => null }
        val scanned = System.nanoTime()
        if (rows == null) checks.error(Records)
        else {
          checks.ok(rows.length == Records)
          var i = 0
          while (i < math.min(rows.length, Records)) { checks.ok(rows(i) == records(i)); i += 1 }
        }

        // global record index -> (part, index in part); parallelize slices
        // the input contiguously and parts list in partition order
        val counts = parts.map(PbcFiles.recordCount)
        val firsts = counts.scanLeft(0)(_ + _)
        val codecs = parts.map(p => new PbcCodec(PbcFiles.readDict(p)))
        val got = new Array[String](PointReads)
        val pointStart = System.nanoTime()
        var i = 0
        while (i < PointReads) {
          val g = points(i)
          var p = 0
          // a record missing from the parts reads as a failure
          while (p < parts.length && firsts(p + 1) <= g) p += 1
          val t0 = System.nanoTime()
          t.begin(sRecord)
          val b =
            if (p == parts.length) null
            else try PbcFiles.readRecord(parts(p), g - firsts(p)) catch { case NonFatal(_) => null }
          t.end()
          got(i) = if (b == null) null else try codecs(p).decompress(b) catch { case NonFatal(_) => null }
          if (measured && !t.enabled) pointLat.add(System.nanoTime() - t0)
          i += 1
        }
        val end = System.nanoTime()
        i = 0
        while (i < PointReads) { checks.ok(got(i) == records(points(i))); i += 1 }
        pointLat.endRound()

        new RoundStats(rawBytes * 1e3 / (written - start), rawBytes * 1e3 / (scanned - read),
          PointReads * 1e9 / (end - pointStart), end - start)
      }

      val m = new Metrics
      val jvm0 = Jvm.snap()
      val rounds = Rounds.measure(o.seconds, Seq(new Tracer(enabled = false)) ++ Option.when(o.trace)(tr))(round)
      val plain = rounds.head
      val jvm1 = Jvm.snap()
      if (!o.trace) {
        Report.endToEnd(m, setupS, fileBytes.toDouble / rawBytes, plain, pointLat)
      } else {
        Jvm.put(m, jvm0, jvm1)
        spark.stop()
        Report.traced(m, rounds(1), plain, pointLat)
        m.put("spark.write_job_s", Stats.median(tr.durations("spark.write").map(_.toDouble)) / 1e9, "s")
        m.put("spark.read_job_s", Stats.median(tr.durations("spark.read").map(_.toDouble)) / 1e9, "s")
        log.put(m)
        m.put("pbc.read_record_us", tr.meanNs("pbc.read_record") / 1e3, "us")
        // per part file a header (magic, length, dictionary); the index is
        // what remains besides the records' coded bytes
        val header = partCount * (8L + dict.serialize.length)
        val codec = new PbcCodec(dict)
        m.put("pbc.header_bytes", header.toDouble, "B")
        m.put("pbc.index_bytes",
          (fileBytes - header - records.iterator.map(codec.compress(_).length.toLong).sum).toDouble, "B")
        Training.metrics(train, cfg, dict, tr, m)
        CodecReplay.run(records.toIndexedSeq, dict, useFsst = false, tr, checks, m)
      }
      Outcome(m, checks,
        skipped = Seq("fsst.", "kv.", "set_", "pbc.append", "pbc.close", "pbc.read_all"),
        env = Map("dataset" -> Dataset, "records" -> Records, "raw_bytes" -> rawBytes,
          "train_records" -> TrainRecords, "point_reads_per_round" -> PointReads,
          "spark_master" -> s"local[$cores]", "partitions" -> cores, "spark" -> spark.version),
        detail = RoundStats.detail(plain) ++ Map("point_samples" -> pointLat.size,
          "setup_s" -> setupS, "session_s" -> sessionS, "train_s" -> trainS))
    } finally {
      if (spark != null) spark.stop()
      deleteTree(work)
    }
  }
}

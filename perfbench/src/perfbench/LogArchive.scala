package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.util.Random
import scala.util.control.NonFatal
import repro.core.PbcCodec
import repro.data.MachineData
import repro.sparkpbc.PbcFiles
import repro.tables.Dictionaries

/** log-archive: Hadoop log records through plain PBC (no FSST) into one
  * `.pbc` file, then a full scan and uniform random point reads, on one
  * thread like the paper's single-core MB/s. Hadoop is the dataset with
  * the most matching work per record and the heaviest affordable
  * training; this workload bypasses FSST and the KV store.
  */
object LogArchive {
  val Dataset = "Hadoop"
  val TrainRecords = 12000
  val Records = 100000
  val PointReads = 20000

  def run(o: Opts, tr: Tracer): Outcome = {
    val cfg = Training.draw(Dictionaries.pbcConfig(Dataset), o.draw)
    val train = MachineData.records(Dataset, TrainRecords, o.seed)
    val (dict, setupS) = Training.train(train, cfg, tr)

    val records = MachineData.records(Dataset, Records, o.serveSeed).toArray
    val rawBytes = records.iterator.map(_.getBytes(UTF_8).length.toLong).sum
    val rnd = new Random(o.serveSeed)
    val points = Array.fill(PointReads)(rnd.nextInt(Records))
    val codec = new PbcCodec(dict)
    val dictBytes = dict.serialize
    val file: Path = o.outDir.resolve("work").resolve(s"archive-${ProcessHandle.current().pid()}.pbc")
    Files.createDirectories(file.getParent)

    val checks = new Checks
    val pointLat = new Samples
    val sAppend = tr.id("pbc.append")
    val sRecord = tr.id("pbc.read_record")
    // file and payload bytes of the archive
    var fileBytes, payloadBytes = 0L
    val headerBytes = 8L + dictBytes.length

    def round(n: Int, t: Tracer): RoundStats = {
      val measured = n >= 0
      val start = System.nanoTime()
      val w = new PbcFiles.Writer(file, dictBytes)
      var i = 0
      while (i < Records) {
        val c = codec.compress(records(i))
        t.begin(sAppend)
        w.append(if (o.corrupt) Corrupt.flip(c) else c)
        t.end()
        i += 1
      }
      t.span("pbc.close")(w.close())
      val written = System.nanoTime()
      fileBytes = Files.size(file)

      val loaded = t.span("pbc.read_all")(PbcFiles.readAll(file))
      val reader = new PbcCodec(loaded.dict)
      payloadBytes = loaded.records.iterator.map(_.length.toLong).sum
      val out = new Array[String](loaded.records.length)
      i = 0
      while (i < out.length) {
        out(i) = try reader.decompress(loaded.records(i)) catch { case NonFatal(_) => null }
        i += 1
      }
      val scanned = System.nanoTime()
      checks.ok(out.length == Records)
      i = 0
      while (i < math.min(out.length, Records)) { checks.ok(out(i) == records(i)); i += 1 }

      val got = new Array[String](PointReads)
      i = 0
      while (i < PointReads) {
        val t0 = System.nanoTime()
        t.begin(sRecord)
        val b = try PbcFiles.readRecord(file, points(i)) catch { case NonFatal(_) => null }
        t.end()
        got(i) = if (b == null) null else try reader.decompress(b) catch { case NonFatal(_) => null }
        if (measured && !t.enabled) pointLat.add(System.nanoTime() - t0)
        i += 1
      }
      val end = System.nanoTime()
      i = 0
      while (i < PointReads) { checks.ok(got(i) == records(points(i))); i += 1 }
      pointLat.endRound()

      new RoundStats(rawBytes * 1e3 / (written - start), rawBytes * 1e3 / (scanned - written),
        PointReads * 1e9 / (end - scanned), end - start)
    }

    val m = new Metrics
    try {
      val jvm0 = Jvm.snap()
      val rounds = Rounds.measure(o.seconds, Seq(new Tracer(enabled = false)) ++ Option.when(o.trace)(tr))(round)
      val plain = rounds.head
      val jvm1 = Jvm.snap()
      if (!o.trace) {
        Report.endToEnd(m, setupS, fileBytes.toDouble / rawBytes, plain, pointLat)
      } else {
        Jvm.put(m, jvm0, jvm1)
        Report.traced(m, rounds(1), plain, pointLat)
        m.put("pbc.append_ns", tr.meanNs("pbc.append"), "ns")
        m.put("pbc.close_ms", Stats.median(tr.durations("pbc.close").map(_.toDouble)) / 1e6, "ms")
        m.put("pbc.read_all_s", Stats.median(tr.durations("pbc.read_all").map(_.toDouble)) / 1e9, "s")
        m.put("pbc.read_record_us", tr.meanNs("pbc.read_record") / 1e3, "us")
        m.put("pbc.header_bytes", headerBytes.toDouble, "B")
        m.put("pbc.index_bytes", (fileBytes - headerBytes - payloadBytes).toDouble, "B")
        Training.metrics(train, cfg, dict, tr, m)
        CodecReplay.run(records.toIndexedSeq, dict, useFsst = false, tr, checks, m)
      }
      Outcome(m, checks, skipped = Seq("fsst.", "kv.", "spark.", "set_"),
        env = Map("dataset" -> Dataset, "records" -> Records, "raw_bytes" -> rawBytes,
          "train_records" -> TrainRecords, "point_reads_per_round" -> PointReads, "threads" -> 1),
        detail = RoundStats.detail(plain) ++ Map("point_samples" -> pointLat.size, "setup_s" -> setupS))
    } finally Files.deleteIfExists(file)
  }
}
